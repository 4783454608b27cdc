"""favd: rank dangerous words in function names and triage likely-vulnerable functions."""

__version__ = "0.1.0"

# The tuning grid's defaults, here so that the command line reads them
# without loading the modules that tune.
DEFAULT_BETA = 2
DEFAULT_CUTOFF_STEP = 100
DEFAULT_THRESHOLD_STEP = "0.05"  # as text: reports record a step as written
