"""Labeled corpora of function names: loading, cleaning, fold plans.

A corpus is read as two lists of identifiers, one labeled vulnerable and one
benign. Cleaning removes duplicates within each list and resolves names
present on both lists by keeping them vulnerable (the conservative reading),
leaving two disjoint name sets. K-fold plans are stratified and seeded, so a
given (corpus, k, seed) always yields the same folds regardless of hash
randomization. A plan, k-fold or leave-one-out, encodes its names in groups
when it is made, each name once, and joins each fold's groups when it is reached.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter, defaultdict, namedtuple
from collections.abc import Collection, Iterable, Iterator, Sequence
from functools import cached_property, partial
from itertools import chain, count
from pathlib import Path
from typing import NamedTuple

from .errors import DataError, InfeasibleError, csv_rows, iter_lines
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
        """The corpus split into term ids, each name once, computed on first use and kept."""
        vocabulary, groups = _encode([(1, self.vulnerable), (2, self.benign)])  # see `_folds`
        return _joined(vocabulary, groups, 3, 1)  # one part: bit 0 vulnerable, bit 1 benign


class EncodedCorpus(namedtuple("EncodedCorpus", "vocabulary vulnerable benign n_vulnerable n_benign")):
    """Each name's unique terms as ids into the vocabulary, grouped by term count.

    `vulnerable[t]` holds the term ids of every vulnerable name with t unique
    terms as one flat `array('i')`, t ids per name, name after name (in no
    fixed order, so no result may read row or term-id order; each name's
    terms in order of appearance); `benign` does the same for the benign names.
    The vocabulary lists its terms in id order. Both sides of every fold of
    one plan share one vocabulary, so a fold's vocabulary may hold terms that
    its own rows lack. A name with no terms (`__`) has no row, so
    `n_vulnerable` and `n_benign`, the names of each class, are counted from
    the names as they are encoded, not from the rows.
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
        v, b = (Counter(chain.from_iterable(rows.values())) for rows in (self.vulnerable, self.benign))
        terms = list(self.vocabulary)  # in id order
        ids = sorted(v.keys() | b.keys(), key=terms.__getitem__)
        ids.sort(key=v.__getitem__, reverse=True)  # stable: equal counts stay in text order
        return [terms[i] for i in ids], [v[i] for i in ids], [b[i] for i in ids]


_Group = namedtuple("_Group", "memberships rows size")  # see `_folds`


def _encode(groups: Iterable[tuple[int, Collection[str]]]) -> tuple[dict[str, int], list[_Group]]:
    """Split each group's names once, over one shared vocabulary; see EncodedCorpus."""
    vocabulary: defaultdict[str, int] = defaultdict(count().__next__)  # new term: next id
    encoded = [_Group(bits, _rows(names, vocabulary), len(names)) for bits, names in groups]
    return dict(vocabulary), encoded


def _rows(names: Iterable[str], vocabulary: defaultdict[str, int]) -> dict[int, array]:
    rows: defaultdict[int, array] = defaultdict(lambda: array("i"))
    for name in names:
        terms = dict.fromkeys(split(name))
        rows[len(terms)].extend(map(vocabulary.__getitem__, terms))
    rows.pop(0, None)
    return dict(rows)


def _joined(vocabulary: dict[str, int], groups: list[_Group], parts: int,
            vulnerable: int) -> EncodedCorpus:
    """The encoding of the groups' names that hold a membership bit of `parts`: a name is
    vulnerable when one of those bits is a `vulnerable` bit, as `clean` keeps it."""
    sides: tuple[list[_Group], list[_Group]] = [], []
    for group in groups:
        if group.memberships & parts:
            sides[not group.memberships & parts & vulnerable].append(group)
    (v, n_v), (b, n_b) = map(_side, sides)
    return EncodedCorpus(vocabulary, v, b, n_v, n_b)


def _side(groups: list[_Group]) -> tuple[dict[int, array], int]:
    """One label's rows and size, joined from its groups."""
    if len(groups) == 1:  # a lone group's rows are the side's, shared, not copied
        return groups[0][1:]
    rows: defaultdict[int, array] = defaultdict(lambda: array("i"))
    for t, ids in chain.from_iterable(group.rows.items() for group in groups):
        rows[t].extend(ids)
    return dict(rows), sum(group.size for group in groups)


class FoldPlan(NamedTuple):
    """Ordered (train encoding, test corpus) pairs, each built when iterated; read once."""

    folds: Iterator[tuple[EncodedCorpus, LabeledCorpus]]


def load_lists(vulnerable_path: str | Path, benign_path: str | Path) -> tuple[list[str], list[str]]:
    """The names of two list files; duplicates and overlaps are left for `clean`."""
    return list(iter_lines(Path(vulnerable_path))), list(iter_lines(Path(benign_path)))


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
    chunks = list(zip(_chunks(corpus.vulnerable, k, rng), _chunks(corpus.benign, k, rng)))
    # No name is in two chunks, so each chunk is a group.
    return _folds(chunks, ((1 << j, names) for j, names in enumerate(chain.from_iterable(chunks))))


def make_leave_one_out(corpora: Sequence[LabeledCorpus]) -> FoldPlan:
    """One fold per corpus, which is its test side; see `_folds`."""
    if len(corpora) < 2:
        raise InfeasibleError("leave-one-out needs at least two corpora")
    memberships: defaultdict[str, int] = defaultdict(int)  # a name's, freed before encoding
    for j, names in enumerate(chain.from_iterable(corpora)):
        for name in names:
            memberships[name] |= 1 << j
    groups: defaultdict[int, list[str]] = defaultdict(list)
    for name, bits in memberships.items():
        groups[bits].append(name)
    del memberships
    return _folds(corpora, groups.items())


def _folds(parts: Sequence[tuple[Collection[str], Collection[str]]],
           groups: Iterable[tuple[int, Collection[str]]]) -> FoldPlan:
    """Fold i tests on part i and trains on the union of the other parts.

    `groups` holds every name of the parts once, in (memberships, names)
    pairs. A group's memberships are a bit set: bit 2j says vulnerable in
    part j, bit 2j + 1 benign in part j. Each group is encoded here, once,
    over one vocabulary. Test side i joins the rows of the groups in part
    i, with part i's label; train side i joins the rows of the groups in
    another part, vulnerable when any other part says so. So no fold splits
    a name again or calls `clean`.
    """
    vocabulary, encoded = _encode(groups)
    return FoldPlan(map(partial(_fold, parts, vocabulary, encoded), range(len(parts))))


def _fold(parts: Sequence[tuple[Collection[str], Collection[str]]], vocabulary: dict[str, int],
          groups: list[_Group], i: int) -> tuple[EncodedCorpus, LabeledCorpus]:
    # Built in the call and handed on unbound by map, so a fold is freed before the next one is built.
    own, vulnerable = 3 << 2 * i, int("01" * len(parts), 2)  # part i's bits; every vulnerable bit
    test = LabeledCorpus(*map(frozenset, parts[i]))  # a corpus's own sets, a chunk's new ones
    test.encoded = _joined(vocabulary, groups, own, vulnerable)
    return _joined(vocabulary, groups, ~own, vulnerable), test
