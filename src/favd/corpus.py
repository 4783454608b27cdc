"""Labeled corpora of function names: loading, cleaning, fold plans.

A corpus is read as two lists of identifiers, one labeled vulnerable and one
benign. Cleaning removes duplicates within each list and resolves names
present on both lists by keeping them vulnerable (the conservative reading),
leaving two disjoint name sets. Fold plans are stratified and seeded, so a
given (corpus, k, seed) always yields the same folds regardless of hash
randomization; each fold is built only when it is reached.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter, defaultdict, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, partial
from itertools import chain, compress, count
from operator import add, sub
from pathlib import Path
from typing import NamedTuple

from .errors import DataError, InfeasibleError, csv_rows, reading
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

    @cached_property
    def term_counts(self) -> tuple[list[str], list[int], list[int]]:
        """The terms that the rows hold and their vulnerable and benign name counts, kept.

        In ranking's tie-break order: more vulnerable names first, then text.
        """
        encoded = self.encoded
        v, b = encoded.vulnerable_counts, encoded.benign_counts
        terms = list(encoded.vocabulary)  # in id order
        ids = sorted(compress(range(len(terms)), map(add, v, b)), key=terms.__getitem__)
        ids.sort(key=v.__getitem__, reverse=True)  # stable: equal counts stay in text order
        return [terms[i] for i in ids], [v[i] for i in ids], [b[i] for i in ids]


class EncodedCorpus(NamedTuple):
    """Each name's unique terms as ids into the vocabulary, grouped by term count.

    `vulnerable[t]` holds the term ids of every vulnerable name with t unique
    terms as one flat `array('i')`, t ids per name, name after name (in no
    fixed order, so no result may read row or term-id order; each name's
    terms in order of appearance); `benign` does the same for the benign names.
    Names with no terms have no row. The vocabulary lists its terms in id
    order. The folds of one k-fold plan share one vocabulary, so a fold's
    vocabulary may hold terms that its own rows lack.
    `vulnerable_counts[i]` and `benign_counts[i]` count the vulnerable and
    benign names holding term id i; they do not depend on the weight, so
    `LabeledCorpus.term_counts` orders them once for every weight's scores.
    """

    vocabulary: dict[str, int]
    vulnerable: dict[int, array]
    benign: dict[int, array]
    vulnerable_counts: list[int]
    benign_counts: list[int]


def encode(corpus: LabeledCorpus) -> EncodedCorpus:
    """Split every name once; see EncodedCorpus for the layout."""
    return _encode_parts([(corpus.vulnerable, corpus.benign)])[0]


def _encode_parts(parts: Iterable[tuple[Iterable[str], Iterable[str]]]) -> list[EncodedCorpus]:
    """The encoding of each (vulnerable, benign) pair of names, over one shared vocabulary."""
    vocabulary: defaultdict[str, int] = defaultdict(count().__next__)  # new term: next id
    rows = [(_rows(v, vocabulary), _rows(b, vocabulary)) for v, b in parts]
    shared, ids = dict(vocabulary), range(len(vocabulary))
    return [EncodedCorpus(shared, v, b, _counts(v, ids), _counts(b, ids)) for v, b in rows]


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
    """Ordered (train, test) pairs, each built when iterated; `folds` is read once."""

    folds: Iterator[tuple[LabeledCorpus, LabeledCorpus]]


def read_lines(path: Path) -> list[str]:
    """A list file's names, one per line in file order, less trailing whitespace and blank lines."""
    with reading(path, "input file") as fh:
        lines = fh.read().splitlines()
    return [line for line in map(str.rstrip, lines) if line]


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
    vulnerable = frozenset(vulnerable)
    benign = frozenset(benign) - vulnerable
    if not vulnerable and not benign:
        raise DataError("both name lists are empty")
    return LabeledCorpus(vulnerable=vulnerable, benign=benign)


def _chunks(names: list[str], k: int) -> list[list[str]]:
    # First (len % k) chunks get one extra element; sizes differ by at most 1.
    base, extra = divmod(len(names), k)
    starts = [i * base + min(i, extra) for i in range(k + 1)]
    return [names[start:end] for start, end in zip(starts, starts[1:])]


def make_kfold(corpus: LabeledCorpus, k: int, seed: int) -> FoldPlan:
    """Stratified k-fold plan with a seeded shuffle per class.

    Deterministic for a given (corpus, k, seed): names are sorted before
    shuffling so set iteration order cannot leak in. The first fold reached
    encodes each chunk once against one shared vocabulary; a fold carries its
    test chunk's encoding, and the other chunks' rows for training.
    """
    if k < 2:
        raise InfeasibleError(f"k must be at least 2, got {k}")
    if len(corpus.vulnerable) < k or len(corpus.benign) < k:
        raise InfeasibleError(
            f"corpus has {len(corpus.vulnerable)} vulnerable and "
            f"{len(corpus.benign)} benign names; both must be >= k={k}"
        )
    rng = random.Random(seed)
    vuln = sorted(corpus.vulnerable)
    ben = sorted(corpus.benign)
    rng.shuffle(vuln)
    rng.shuffle(ben)
    return FoldPlan(_kfold_folds(corpus, _chunks(vuln, k), _chunks(ben, k)))


def _kfold_folds(corpus: LabeledCorpus, vuln: list[list[str]],
                 ben: list[list[str]]) -> Iterator[tuple[LabeledCorpus, LabeledCorpus]]:
    chunks = _encode_parts(zip(vuln, ben))
    vulnerable_total = [sum(column) for column in zip(*(c.vulnerable_counts for c in chunks))]
    benign_total = [sum(column) for column in zip(*(c.benign_counts for c in chunks))]
    for i, chunk in enumerate(chunks):
        rest = chunks[:i] + chunks[i + 1:]
        # Built in the call and yielded unbound, so a fold is freed before the next one is built.
        yield _kfold_fold(corpus, vuln[i], ben[i], chunk, EncodedCorpus(
            chunk.vocabulary, _joined(c.vulnerable for c in rest), _joined(c.benign for c in rest),
            list(map(sub, vulnerable_total, chunk.vulnerable_counts)),
            list(map(sub, benign_total, chunk.benign_counts))))


def _kfold_fold(corpus: LabeledCorpus, vuln: list[str], ben: list[str], test_encoded: EncodedCorpus,
                train_encoded: EncodedCorpus) -> tuple[LabeledCorpus, LabeledCorpus]:
    test = LabeledCorpus(vulnerable=frozenset(vuln), benign=frozenset(ben))
    train = LabeledCorpus(vulnerable=corpus.vulnerable - test.vulnerable,
                          benign=corpus.benign - test.benign)
    test.encoded, train.encoded = test_encoded, train_encoded
    return train, test


def _joined(groups: Iterable[dict[int, array]]) -> dict[int, array]:
    """The rows of several encodings over one vocabulary, as one encoding's rows."""
    rows: defaultdict[int, array] = defaultdict(lambda: array("i"))
    for group in groups:
        for t, ids in group.items():
            rows[t].extend(ids)
    return dict(rows)


def make_leave_one_out(corpora: Sequence[LabeledCorpus]) -> FoldPlan:
    """One fold per corpus; train is the re-cleaned union of all the others.

    Re-cleaning matters: a name vulnerable in one project and benign in
    another must end up vulnerable in the union.
    """
    if len(corpora) < 2:
        raise InfeasibleError("leave-one-out needs at least two corpora")
    return FoldPlan(map(partial(_loo_fold, corpora), range(len(corpora))))


def _loo_fold(corpora: Sequence[LabeledCorpus], i: int) -> tuple[LabeledCorpus, LabeledCorpus]:
    rest = corpora[:i] + corpora[i + 1:]
    train = clean(chain.from_iterable(c.vulnerable for c in rest),
                  chain.from_iterable(c.benign for c in rest))
    return train, corpora[i]
