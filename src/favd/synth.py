"""Synthetic corpora with planted dangerous words.

Names are underscore-joined samples from per-class vocabularies, so splitting
recovers the generating terms exactly and a tuner can be graded against known
ground truth. `vocab_overlap` controls how much filler vocabulary the two
classes share: 0 keeps them disjoint (easy to separate), 1 makes them
identical (no usable signal beyond the planted words). Raising the overlap
degrades achievable cross-validated scores. Each name costs a constant
number of RNG calls and copies no vocabulary, so a corpus takes time
linear in its names and words, at VDISC's size too.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import partial
from itertools import accumulate
from math import perm
from pathlib import Path
from string import ascii_lowercase

from .checks import boolean, checked, count, integer, list_of, number, string
from .corpus import LabeledCorpus, clean
from .errors import DataError, writing
from .splitter import split


class SynthSpec(namedtuple("SynthSpec", "seed n_vulnerable n_benign planted_dangerous vocab_size "
                           "terms_per_name signal_strength vocab_overlap camel_case")):
    """What `generate` draws: name counts, planted words, vocabulary and name shape."""

    __slots__ = ()

    def __new__(cls, seed: int, n_vulnerable: int, n_benign: int, planted_dangerous: frozenset[str],
                vocab_size: int, terms_per_name: tuple[int, int] = (2, 4),
                signal_strength: float = 1.0, vocab_overlap: float = 0.0,
                camel_case: bool = False) -> "SynthSpec":
        if n_vulnerable < 1 or n_benign < 1:
            raise ValueError("name counts must be positive")
        if vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        if len(terms_per_name) != 2 or not 1 <= terms_per_name[0] <= terms_per_name[1]:
            raise ValueError("terms_per_name: must be a [min, max] pair with 1 <= min <= max, "
                             f"got {list(terms_per_name)}")
        if not 0 <= signal_strength <= 1:
            raise ValueError("signal_strength must lie in [0, 1]")
        if not 0 <= vocab_overlap <= 1:
            raise ValueError("vocab_overlap must lie in [0, 1]")
        if not planted_dangerous:
            raise ValueError("at least one planted dangerous term is required")
        for term in planted_dangerous:
            if split(term) != [term] or not term.islower():
                raise ValueError(
                    f"planted term {term!r} must be a single lowercase splitter-atomic word"
                )
        return super().__new__(cls, seed, n_vulnerable, n_benign, planted_dangerous, vocab_size,
                               terms_per_name, signal_strength, vocab_overlap, camel_case)


def random_terms(rng: random.Random, count: int, exclude: frozenset[str] = frozenset()) -> list[str]:
    """Unique lowercase alphabetic words, 3 to 8 letters."""
    out: list[str] = []
    seen = set(exclude)
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 1000 * count + 1000:
            raise DataError("could not generate enough unique vocabulary words")
        word = "".join(rng.choice(ascii_lowercase) for _ in range(rng.randint(3, 8)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _camel(terms: list[str]) -> str:
    return terms[0] + "".join(map(str.capitalize, terms[1:]))


def generate(spec: SynthSpec) -> tuple[LabeledCorpus, frozenset[str]]:
    """Deterministic corpus for the spec's seed, plus the planted ground truth.

    A name costs a constant number of RNG calls: `random()` (vulnerable names
    only), its length, then the planted word, the positions of the others in
    the vulnerable pool less that word, and a shuffle; or, unplanted, its words.
    """
    rng = random.Random(spec.seed)
    planted = sorted(spec.planted_dangerous)
    filler = random_terms(rng, spec.vocab_size, exclude=spec.planted_dangerous)
    shared_n = round(spec.vocab_overlap * spec.vocab_size)
    shared, rest = filler[:shared_n], filler[shared_n:]
    half = len(rest) // 2
    vuln_filler, benign_pool = shared + rest[:half], shared + rest[half:]
    vuln_pool = planted + vuln_filler  # planted word i at position i
    anchors, others = range(len(planted)), range(len(vuln_pool) - 1)
    lo, hi = spec.terms_per_name
    join = _camel if spec.camel_case else "_".join

    def draw_unique(count: int, pool: list[str], signal: bool) -> set[str]:
        # A name is a sequence of distinct words: perm(words, n) of n words.
        words = len(vuln_pool if signal else pool)
        formable = accumulate(perm(words, n) for n in range(lo, min(hi, words) + 1))
        if not any(total >= count for total in formable):
            raise DataError(f"vocabulary too small: {words} words cannot form {count} names")
        names: set[str] = set()
        for _ in range(200 * count + 1000):
            with_planted = signal and rng.random() < spec.signal_strength
            length = rng.randrange(lo, hi + 1)
            if length > len(vuln_pool if with_planted else pool):
                break
            if with_planted:
                anchor = rng.choice(anchors)
                terms = [vuln_pool[anchor],
                         *[vuln_pool[i + (i >= anchor)] for i in rng.sample(others, length - 1)]]
                rng.shuffle(terms)
            else:
                terms = rng.sample(pool, length)
            names.add(join(terms))
            if len(names) == count:
                return names
        raise DataError("vocabulary too small for requested name lengths")

    vulnerable = draw_unique(spec.n_vulnerable, vuln_filler, signal=True)
    benign = draw_unique(spec.n_benign, benign_pool, signal=False)
    return clean(vulnerable, benign), frozenset(planted)


def write_corpus(corpus: LabeledCorpus, out_dir: str | Path) -> tuple[Path, Path]:
    """Write sorted vulnerable.txt and benign.txt list files."""
    out = Path(out_dir)
    vpath, bpath = out / "vulnerable.txt", out / "benign.txt"
    for path, names in ((vpath, corpus.vulnerable), (bpath, corpus.benign)):
        with writing(path) as fh:
            fh.write("".join(f"{n}\n" for n in sorted(names)))
    return vpath, bpath


# Upper bounds on a spec file's counts, so that a typo cannot start a run
# that does not end: names per class (VDISC, the largest published corpus,
# has 932,741 benign names) and generated words (planted or filler).
MAX_NAMES = 1_000_000
MAX_WORDS = 100_000


def spec_from_dict(doc: dict) -> SynthSpec:
    """Build a SynthSpec from a JSON document, checking each value's type.

    Accepts either an explicit `planted_dangerous` list or a `planted_count`
    to auto-generate that many terms from the seed. Name counts are bounded
    by MAX_NAMES, and `planted_count` and `vocab_size` by MAX_WORDS.
    """
    def get(key, check, default=None):  # default None: the key is required
        return checked(key, check, doc[key] if default is None else doc.get(key, default))

    name_count, word_count = partial(count, most=MAX_NAMES), partial(count, most=MAX_WORDS)

    try:
        seed = get("seed", integer)
        planted = doc.get("planted_dangerous")
        if planted is None:
            if "planted_count" not in doc:
                raise DataError("needs planted_dangerous or planted_count")
            planted = random_terms(random.Random(seed ^ 0x5EED), get("planted_count", word_count))
        return SynthSpec(
            seed=seed,
            n_vulnerable=get("n_vulnerable", name_count),
            n_benign=get("n_benign", name_count),
            planted_dangerous=frozenset(checked("planted_dangerous", list_of(string), planted)),
            vocab_size=get("vocab_size", word_count),
            terms_per_name=tuple(get("terms_per_name", list_of(integer), [2, 4])),
            signal_strength=float(get("signal_strength", number, 1.0)),
            vocab_overlap=float(get("vocab_overlap", number, 0.0)),
            camel_case=get("camel_case", boolean, False),
        )
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"bad synth spec: {exc}") from exc
