"""Labeled corpora of function names: loading, cleaning, fold plans.

A corpus is read as two lists of identifiers, one labeled vulnerable and one
benign. Cleaning removes duplicates within each list and resolves names
present on both lists by keeping them vulnerable (the conservative reading),
leaving two disjoint name sets. K-fold plans are stratified and seeded, so a
given (corpus, k, seed) always yields the same folds regardless of hash
randomization. A plan, k-fold or leave-one-out, encodes its parts once when
it is made, so a name is split once, and builds each fold when it is reached.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter, defaultdict, namedtuple
from collections.abc import Collection, Iterable, Iterator, Sequence
from functools import cached_property, partial
from itertools import chain, compress, count
from operator import add
from pathlib import Path
from typing import NamedTuple

from .errors import DataError, InfeasibleError, csv_rows, read_lines
from .splitter import split


class LabeledCorpus(namedtuple("LabeledCorpus", "vulnerable benign")):
    """Cleaned corpus: disjoint sets of vulnerable and benign names."""

    def __new__(cls, vulnerable: frozenset[str], benign: frozenset[str]) -> "LabeledCorpus":
        if vulnerable & benign:
            raise ValueError("vulnerable and benign sets must be disjoint")
        if "" in vulnerable or "" in benign:
            raise ValueError("identifiers must be non-empty")
        return super().__new__(cls, vulnerable, benign)

    @cached_property
    def encoded(self) -> "EncodedCorpus":
        """The corpus split into term ids, computed on first use and kept."""
        return encode(self)


class EncodedCorpus(namedtuple("EncodedCorpus", "vocabulary vulnerable benign vulnerable_counts "
                                                "benign_counts n_vulnerable n_benign")):
    """Each name's unique terms as ids into the vocabulary, grouped by term count.

    `vulnerable[t]` holds the term ids of every vulnerable name with t unique
    terms as one flat `array('i')`, t ids per name, name after name (in no
    fixed order, so no result may read row or term-id order; each name's
    terms in order of appearance); `benign` does the same for the benign names.
    The vocabulary lists its terms in id order. The folds of one plan share
    one vocabulary (bar a leave-one-out train side encoded anew), so a fold's
    vocabulary may hold terms that its own rows lack. `vulnerable_counts[i]`
    and `benign_counts[i]` count the vulnerable and benign names holding term
    id i. A name with no terms (`__`) has no row, so `n_vulnerable` and
    `n_benign`, the names of each class, are counted from the names as they
    are encoded, not from the rows.
    """

    @property
    def encoded(self) -> "EncodedCorpus":
        """Itself: tuning, counting and ROC read a corpus, labeled or encoded, as `.encoded`."""
        return self

    @cached_property
    def term_counts(self) -> tuple[list[str], list[int], list[int]]:
        """The terms that the rows hold and their vulnerable and benign name counts, kept.

        In ranking's tie-break order: more vulnerable names first, then text.
        They do not depend on the weight, so they are ordered once for every weight's scores.
        """
        v, b = self.vulnerable_counts, self.benign_counts
        terms = list(self.vocabulary)  # in id order
        ids = sorted(compress(range(len(terms)), map(add, v, b)), key=terms.__getitem__)
        ids.sort(key=v.__getitem__, reverse=True)  # stable: equal counts stay in text order
        return [terms[i] for i in ids], [v[i] for i in ids], [b[i] for i in ids]


def encode(corpus: LabeledCorpus) -> EncodedCorpus:
    """Split every name once; see EncodedCorpus for the layout."""
    return _encode_parts([(corpus.vulnerable, corpus.benign)])[0]


def _encode_parts(parts: Iterable[tuple[Collection[str], Collection[str]]]) -> list[EncodedCorpus]:
    """The encoding of each (vulnerable, benign) pair of names, over one shared vocabulary."""
    vocabulary: defaultdict[str, int] = defaultdict(count().__next__)  # new term: next id
    rows = [(_rows(v, vocabulary), _rows(b, vocabulary), len(v), len(b)) for v, b in parts]
    shared, ids = dict(vocabulary), range(len(vocabulary))
    return [EncodedCorpus(shared, v, b, _counts(v, ids), _counts(b, ids), n_v, n_b)
            for v, b, n_v, n_b in rows]


def _rows(names: Iterable[str], vocabulary: defaultdict[str, int]) -> dict[int, array]:
    rows: defaultdict[int, array] = defaultdict(lambda: array("i"))
    for name in names:
        terms = dict.fromkeys(split(name))
        rows[len(terms)].extend(map(vocabulary.__getitem__, terms))
    rows.pop(0, None)
    return dict(rows)


def _counts(rows: dict[int, array], ids: range) -> list[int]:
    counts = Counter(chain.from_iterable(rows.values()))
    return list(map(counts.__getitem__, ids))


class FoldPlan(NamedTuple):
    """Ordered (train encoding, test corpus) pairs, each built when iterated; read once."""

    folds: Iterator[tuple[EncodedCorpus, LabeledCorpus]]


def load_lists(vulnerable_path: str | Path, benign_path: str | Path) -> tuple[list[str], list[str]]:
    """The names of two list files; duplicates and overlaps are left for `clean`."""
    return read_lines(Path(vulnerable_path)), read_lines(Path(benign_path))


def load_csv(path: str | Path) -> tuple[list[str], list[str]]:
    """The vulnerable and benign names of a two-column `name,label` CSV, in file order."""
    path = Path(path)
    names: dict[str, list[str]] = {"vulnerable": [], "benign": []}
    rows = csv_rows(path, "input file")
    _, header = next(rows, (0, []))
    if [h.lower() for h in header[:2]] != ["name", "label"]:
        raise DataError(f"expected header 'name,label' in {path}")
    for line, fields in rows:
        if len(fields) < 2:
            raise DataError(f"{path}:{line}: expected two columns")
        label = fields[1].lower()
        if label not in names:
            raise DataError(f"{path}:{line}: unknown label {fields[1]!r}")
        names[label].append(fields[0])
    return names["vulnerable"], names["benign"]


def clean(vulnerable: Iterable[str], benign: Iterable[str]) -> LabeledCorpus:
    """Deduplicate both lists and keep names found on both as vulnerable."""
    vulnerable, benign = frozenset(vulnerable), frozenset(benign)
    if not benign.isdisjoint(vulnerable):  # the difference is a second set as large as benign
        benign -= vulnerable
    if not vulnerable and not benign:
        raise DataError("both name lists are empty")
    return LabeledCorpus(vulnerable=vulnerable, benign=benign)


def _chunks(names: Iterable[str], k: int, rng: random.Random) -> list[list[str]]:
    # Sorted before shuffling, so set iteration order cannot leak in. The first
    # (len % k) chunks get one extra element; sizes differ by at most 1.
    names = sorted(names)
    rng.shuffle(names)
    base, extra = divmod(len(names), k)
    starts = [i * base + min(i, extra) for i in range(k + 1)]
    return [names[start:end] for start, end in zip(starts, starts[1:])]


def make_kfold(corpus: LabeledCorpus, k: int, seed: int) -> FoldPlan:
    """Stratified k-fold plan with a seeded shuffle per class; see `_folds`.

    Deterministic for a given (corpus, k, seed), regardless of hash
    randomization. Fold i tests on chunk i of each class.
    """
    if k < 2:
        raise InfeasibleError(f"k must be at least 2, got {k}")
    if len(corpus.vulnerable) < k or len(corpus.benign) < k:
        raise InfeasibleError(
            f"corpus has {len(corpus.vulnerable)} vulnerable and "
            f"{len(corpus.benign)} benign names; both must be >= k={k}"
        )
    rng = random.Random(seed)  # the full sorted lists are freed before the chunks are encoded
    return _folds(list(zip(_chunks(corpus.vulnerable, k, rng), _chunks(corpus.benign, k, rng))))


def make_leave_one_out(corpora: Sequence[LabeledCorpus]) -> FoldPlan:
    """One fold per corpus, which is its test side; see `_folds`."""
    if len(corpora) < 2:
        raise InfeasibleError("leave-one-out needs at least two corpora")
    return _folds(corpora, may_share=True)


def _folds(parts: Sequence[tuple[Collection[str], Collection[str]]], may_share=False) -> FoldPlan:
    """Fold i tests on part i and trains on the union of the other parts.

    Every part is encoded here, once, over one shared vocabulary, and test
    side i carries part i's encoding (a part that is a LabeledCorpus is its
    own test side). Train side i joins the other parts' rows and sums their
    counts and sizes: the union's encoding when no name is in two of them,
    as for k-fold chunks. Leave-one-out projects `may_share` a name, so each
    fold first takes `clean` of their union (a name vulnerable anywhere stays
    so); if it is smaller than the parts, the train side encodes it anew and
    joins nothing.
    """
    return FoldPlan(map(partial(_fold, parts, _encode_parts(parts), may_share), range(len(parts))))


def _fold(parts: Sequence[tuple[Collection[str], Collection[str]]], encodings: list[EncodedCorpus],
          may_share: bool, i: int) -> tuple[EncodedCorpus, LabeledCorpus]:
    # Built in the call and handed on unbound by map, so a fold is freed before the next one is built.
    rest, part = parts[:i] + parts[i + 1:], parts[i]
    test = part if isinstance(part, LabeledCorpus) else LabeledCorpus(*map(frozenset, part))
    test.encoded = encodings[i]
    if may_share:
        union = clean(chain.from_iterable(v for v, _ in rest), chain.from_iterable(b for _, b in rest))
        if len(union.vulnerable) + len(union.benign) < sum(map(len, chain.from_iterable(rest))):
            return union.encoded, test  # a name is in two of the other parts
    return _joined(encodings[:i] + encodings[i + 1:]), test


def _joined(parts: list[EncodedCorpus]) -> EncodedCorpus:
    """The encoding of disjoint parts' names, from the parts' encodings over one vocabulary."""
    vocabulary, vulnerable, benign, *counts, n_vulnerable, n_benign = zip(*parts)
    rows = defaultdict(lambda: array("i")), defaultdict(lambda: array("i"))
    for joined, groups in zip(rows, (vulnerable, benign)):
        for t, ids in chain.from_iterable(group.items() for group in groups):
            joined[t].extend(ids)
    return EncodedCorpus(vocabulary[0], *map(dict, rows), *(list(map(sum, zip(*c))) for c in counts),
                         sum(n_vulnerable), sum(n_benign))
