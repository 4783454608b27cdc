"""Brute-force oracle for the tuning pipeline, written from the contract.

Everything here is computed with plain loops, dicts, and Fractions, on
purpose sharing no code with favd.ranking/favd.tuner. Only the identifier
splitter is shared, since both sides are defined over the same term sets.

It also keeps character-by-character reference versions of the splitter
and the harvest lexer, which the faster ones in favd must agree with.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from favd.harvest import _KEYWORDS, HarvestedName
from favd.splitter import split


def reference_split(identifier: str) -> list[str]:
    """The splitter's contract, one character and one boundary test at a time."""
    terms: list[str] = []
    current: list[str] = []
    prev = ""
    for ch in identifier:
        if ch == "_":
            if current:
                terms.append("".join(current))
                current = []
            prev = ""
            continue
        boundary = (
            (prev.islower() and ch.isupper())
            or (prev.isalpha() and ch.isdigit())
            or (prev.isdigit() and ch.isalpha())
        )
        if current and boundary:
            terms.append("".join(current))
            current = []
        current.append(ch)
        prev = ch
    if current:
        terms.append("".join(current))
    return terms


def reference_strip(text: str) -> str:
    """Blank comments and string/char literal bodies with a state machine."""
    out = list(text)
    i, n = 0, len(text)
    CODE, LINE, BLOCK, STR, CHAR = range(5)
    state = CODE
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == CODE:
            if c == "/" and nxt == "/":
                state = LINE
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = STR
            elif c == "'":
                state = CHAR
            i += 1
            continue
        if state == LINE:
            if c == "\\" and nxt == "\n":
                out[i] = " "
                i += 2
                continue
            if c == "\n":
                state = CODE
            else:
                out[i] = " "
            i += 1
            continue
        if state == BLOCK:
            if c == "*" and nxt == "/":
                state = CODE
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
            continue
        # STR or CHAR: blank the contents, keep the delimiters visible.
        quote = '"' if state == STR else "'"
        if c == "\\" and nxt:
            out[i] = " "
            if nxt != "\n":
                out[i + 1] = " "
            i += 2
            continue
        if c == quote:
            state = CODE
        elif c != "\n":
            out[i] = " "
        i += 1
    return "".join(out)


def _identifier_before(text: str, index: int) -> tuple[str, int]:
    j = index - 1
    while j >= 0 and text[j] in " \t\n\r":
        j -= 1
    end = j + 1
    while j >= 0 and (text[j] == "_" or "a" <= text[j] <= "z" or "A" <= text[j] <= "Z"
                      or "0" <= text[j] <= "9"):
        j -= 1
    name = text[j + 1 : end]
    if not name or name[0].isdigit():
        return "", -1
    return name, j + 1


def _matching_paren(text: str, open_index: int) -> int:
    depth = 1
    for i in range(open_index + 1, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def reference_harvest_text(text: str, file_label: str) -> list[HarvestedName]:
    """Definitions found by scanning every character of the stripped text."""
    code = reference_strip(text)
    newline_offsets = [i for i, c in enumerate(code) if c == "\n"]
    found: list[HarvestedName] = []
    depth = 0
    for i, c in enumerate(code):
        if c == "(":
            if depth == 0:
                name, start = _identifier_before(code, i)
                close = _matching_paren(code, i)
                if name and name not in _KEYWORDS and close != -1:
                    k = close + 1
                    while k < len(code) and code[k] in " \t\n\r":
                        k += 1
                    if k < len(code) and code[k] == "{":
                        line = bisect_right(newline_offsets, start) + 1
                        found.append(HarvestedName(name=name, file=file_label, line=line))
            depth += 1
        elif c == ")":
            depth = max(0, depth - 1)
    return found


def oracle_f2(tp: int, fp: int, fn: int) -> Fraction:
    if tp == 0:
        return Fraction(0)
    return Fraction(5 * tp, 5 * tp + 4 * fn + fp)


def oracle_rank(vuln, benign, weight, keep_all: bool) -> list[str]:
    scores: dict[str, int] = {}
    vuln_count: dict[str, int] = {}
    for name in vuln:
        for term in set(split(name)):
            scores[term] = scores.get(term, 0) + weight.plus
            vuln_count[term] = vuln_count.get(term, 0) + 1
    for name in benign:
        for term in set(split(name)):
            scores[term] = scores.get(term, 0) - weight.minus
    items = [(t, s) for t, s in scores.items() if keep_all or s >= 0]
    items.sort(key=lambda x: (-x[1], -vuln_count.get(x[0], 0), x[0]))
    return [t for t, _ in items]


def oracle_cutoffs(length: int, step: int) -> list[int]:
    values = list(range(1, length + 1, step))
    if values and values[-1] != length:
        values.append(length)
    return values


def oracle_rank_external(scores: dict[str, Fraction], min_score) -> list[str]:
    items = [(t, s) for t, s in scores.items() if min_score is None or s >= min_score]
    items.sort(key=lambda x: (-x[1], x[0]))
    return [t for t, _ in items]


def oracle_tune(corpus, words: list[str], cutoff_step, thresholds):
    """Cutoff x threshold double loop for a fixed ranked word list."""
    vuln, benign = sorted(corpus.vulnerable), sorted(corpus.benign)
    term_sets = {n: set(split(n)) for n in vuln + benign}
    thresholds = sorted(thresholds, reverse=True)
    best = None
    cells: dict[tuple, Fraction] = {}
    for cutoff in oracle_cutoffs(len(words), cutoff_step):
        top = set(words[:cutoff])
        for threshold in thresholds:
            tp = fp = fn = 0
            for name in vuln:
                terms = term_sets[name]
                pct = Fraction(len(terms & top), len(terms)) if terms else Fraction(0)
                if pct > threshold:
                    tp += 1
                else:
                    fn += 1
            for name in benign:
                terms = term_sets[name]
                pct = Fraction(len(terms & top), len(terms)) if terms else Fraction(0)
                if pct > threshold:
                    fp += 1
            f2 = oracle_f2(tp, fp, fn)
            cells[(cutoff, threshold)] = f2
            if best is None or f2 > best[0]:
                best = (f2, cutoff, threshold)
    return best, cells


def oracle_sweep(corpus, weights, cutoff_step, thresholds, keep_all=False):
    """Triple loop over weight x cutoff x threshold, recounting from scratch.

    Returns (best, cells) where best is (f2, weight_index, cutoff, threshold)
    under the tie-break (higher f2, earlier weight, smaller cutoff, larger
    threshold) and cells maps (weight_tag, cutoff, threshold) to f2.
    """
    vuln, benign = sorted(corpus.vulnerable), sorted(corpus.benign)
    term_sets = {n: set(split(n)) for n in vuln + benign}
    thresholds = sorted(thresholds, reverse=True)
    best = None
    cells: dict[tuple, Fraction] = {}
    for w_index, weight in enumerate(weights):
        words = oracle_rank(vuln, benign, weight, keep_all)
        if not words:
            if best is None:
                best = (Fraction(0), w_index, 0, Fraction(1))
            continue
        for cutoff in oracle_cutoffs(len(words), cutoff_step):
            top = set(words[:cutoff])
            for threshold in thresholds:
                tp = fp = fn = 0
                for name in vuln:
                    terms = term_sets[name]
                    pct = Fraction(len(terms & top), len(terms)) if terms else Fraction(0)
                    if pct > threshold:
                        tp += 1
                    else:
                        fn += 1
                for name in benign:
                    terms = term_sets[name]
                    pct = Fraction(len(terms & top), len(terms)) if terms else Fraction(0)
                    if pct > threshold:
                        fp += 1
                f2 = oracle_f2(tp, fp, fn)
                cells[(weight.tag(), cutoff, threshold)] = f2
                if best is None or f2 > best[0]:
                    best = (f2, w_index, cutoff, threshold)
    return best, cells


def oracle_counts(vuln, benign, top: set[str], threshold) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) of the rule: a name is vulnerable when more than `threshold` of
    its distinct terms are in `top`; a name with no terms is benign."""
    def flagged(name):
        terms = set(split(name))
        return bool(terms) and Fraction(len(terms & top), len(terms)) > threshold
    tp = sum(map(flagged, vuln))
    fp = sum(map(flagged, benign))
    return tp, fp, len(vuln) - tp, len(benign) - fp


def oracle_loo(projects) -> list[tuple[set[str], set[str], set[str], set[str]]]:
    """Leave-one-out folds from the contract, one per project, in order.

    Each project is a (vulnerable, benign) pair of name lists: duplicates are
    dropped, and a name on both lists is vulnerable. Fold i tests on project
    i and trains on the union of the other projects, where a name vulnerable
    in any of them is vulnerable. Returns (train vulnerable, train benign,
    test vulnerable, test benign) name sets per fold.
    """
    cleaned = [(set(vuln), set(benign) - set(vuln)) for vuln, benign in projects]
    folds = []
    for i, (test_vuln, test_benign) in enumerate(cleaned):
        train_vuln, train_benign = set(), set()
        for j, (vuln, benign) in enumerate(cleaned):
            if j != i:
                train_vuln |= vuln
                train_benign |= benign
        folds.append((train_vuln, train_benign - train_vuln, test_vuln, test_benign))
    return folds
