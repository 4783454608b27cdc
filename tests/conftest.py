import gc

import pytest

from favd.corpus import LabeledCorpus, clean


@pytest.fixture
def toy_corpus() -> LabeledCorpus:
    """Two vulnerable and one benign name sharing the term 'file'."""
    return clean(("read_file", "read_net"), ("write_file",))


@pytest.fixture
def separable_corpus() -> LabeledCorpus:
    """'danger' appears in every vulnerable name and no benign one."""
    return clean(("danger_alpha", "danger_bravo", "danger_gamma"),
                 ("safe_alpha", "safe_bravo", "calm_gamma"))


@pytest.fixture
def live_corpora():
    """A counter of the live LabeledCorpus objects (or of another type), after a collection."""
    def count(kind: type = LabeledCorpus) -> int:
        gc.collect()
        return sum(isinstance(o, kind) for o in gc.get_objects())
    return count
