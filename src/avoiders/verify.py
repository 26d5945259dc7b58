"""Cross-verification harness: every structural claim the package relies on,
checked against independent computation.

Every check is a stream of failure strings over its cases, and one driver,
``_result``, turns the stream into a ``CheckResult``: a pass/fail flag and, on
failure, the first counterexample or an expected-vs-actual diff.  The driver
stops the stream at its first failure, so no case after it is checked.  The
bijection checks sweep complete avoidance classes, and the class-product
check takes both factors of each cell from ``count_class``, the code behind
``avoiders count``; ``_routes`` holds each route (enumeration, the ``count``
walks, the closed form) to its series.
``run_checks`` bundles everything for the ``verify`` CLI command; the test
suite calls the individual functions with the bounds it wants.  Within one
``run_checks`` call each start-small class and each ``gf_full`` and
``gf_start_small`` series is built once and shared until the call returns;
a start-small class is one table from each member, in listing order, to its
key mid-123 count.  Only the C^3 oracle streams its classes, which kept
would take about 2 MB (the 16,794 start-small 123-avoiders of [3] .. [10]).

This module is the one place each theorem is checked: in particular the
postconditions of ``bijection.decompose`` are written only in
``check_decomposition_typing``, and the library does not re-check them.
That check judges each sigma1 and sigma2 by the run's own tables: one in
the start-small table for its length, the pair's or 123's, avoids that
class's patterns and has the key count stored there, and the generic
matchers ``avoids`` and ``contains`` judge only what the tables cannot, so
a passing run never calls them.  The listing is not taken on trust:
``check_enumeration_matches_series`` holds the enumerator to the series.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .bijection import Perm, decompose, inverse_params, phi, phi_inverse, recompose
from .enumeration import (
    ClassDescriptor,
    count_class,
    enumerate_avoiders,
    enumerate_class,
)
from .perms import (
    AVOIDED_PAIR,
    PATTERN_123,
    avoids,
    contains,
    format_perm,
    is_start_small,
    key_mid123_entries,
    mid123_entries,
    parse_perm,
)
from .series import (
    catalan_series,
    gf_elements,
    gf_full,
    gf_start_small,
    invert_transform,
    kotesovec_series,
    poly,
    sqrt_one_minus_4x,
)

#: First terms of A164651 (index n holds the count for length n), vendored in
#: the package data; the file's header states where each term comes from.
REFERENCE_SEQUENCE_FILE = "a164651.txt"

# The two fixed worked decompositions used as golden examples, one row each:
# the case name that failure details start with, the input, its image pair,
# whether it is the key case, the step's witnesses, and the parameters
# ``inverse_params`` must read off the pair (pinned for the drop case only).
GOLDEN_EXAMPLES = (
    (
        "key-case",
        parse_perm("11 2 12 9 7 8 4 5 6 1 10 3"),
        (parse_perm("8 1 9 6 4 5 2 3 7"), parse_perm("2 1 4 3")),
        True,
        {"b_value": 6, "a_value": 2, "c_value": 10, "j": 9, "r": 0},
        {},
    ),
    (
        "drop-case",
        parse_perm("13 16 12 3 15 8 9 10 11 7 6 5 2 1 14 4"),
        (parse_perm("9 12 8 4 11 5 6 7 10 3 2 1"), parse_perm("3 2 1 5 4")),
        False,
        {"b_value": 5, "a_value": 3, "c_value": 14, "j": 12, "r": 3},
        {"n": 16, "j": 12, "r": 3, "p": 9, "q": 4,
         "i_pos": 4, "k_pos": 15, "a_value": 3, "c_value": 14, "s": 4},
    ),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    scope: str
    passed: bool
    detail: str = ""


def _result(name: str, scope: str, failures: Iterable[str]) -> CheckResult:
    # The one place a check's outcome is decided: the stream's first failure,
    # if it has one.  No case after that failure is checked.
    failure = next(iter(failures), None)
    return CheckResult(name=name, scope=scope, passed=failure is None,
                       detail=failure or "")


def _routes(name: str, scope: str, *routes: tuple) -> CheckResult:
    # A route is (first n, its terms from there, the coefficients of the series
    # they must equal, a message for each n where they differ, naming a and b).
    # Checks build their routes when called, so a rebound gf_full reaches them.
    mismatches = (
        message.format(n=n, a=a, b=b)
        for first, terms, coeffs, message in routes
        for n, (a, b) in enumerate(zip(terms, coeffs[first:], strict=True), first)
        if a != b
    )
    return _result(name, scope, mismatches)


#: What one ``run_checks`` call has built, by (builder, arguments); a module
#: slot, since the public checks take only their bounds, and None outside a
#: run.  Start-small classes are kept as keyed tables; full classes are not
#: kept: at ``--deep`` they would hold about 500k tuples.
_store: dict[tuple, object] | None = None


def _once(build, *args):
    store = {} if _store is None else _store
    if (build, args) not in store:
        store[build, args] = build(*args)
    return store[build, args]


def _start_small(n: int, patterns: tuple[Perm, ...]) -> dict[Perm, int]:
    # A repeat would merge silently into the table, so it is refused.
    table: dict[Perm, int] = {}
    for perm in enumerate_class(ClassDescriptor(n, patterns, start_small_only=True)):
        if perm in table:
            raise RuntimeError(f"the start-small listing of [{n}] repeats {format_perm(perm)}")
        table[perm] = len(key_mid123_entries(perm))
    return table


def load_reference_sequence() -> list[int]:
    """The vendored A164651 terms, index n = count for permutations of [n]."""
    from importlib.resources import files

    text = (files("avoiders") / "data" / REFERENCE_SEQUENCE_FILE).read_text()
    terms = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n_str, value_str = line.split()
        terms[int(n_str)] = int(value_str)
    return [terms[n] for n in range(len(terms))]


def check_reference_counts(order: int = 100) -> CheckResult:
    """gf_full reproduces the vendored A164651 terms."""
    reference = load_reference_sequence()
    top = min(order, len(reference) - 1)
    return _routes("reference_counts", f"n<={top}", (
        0, _once(gf_full, top).coeffs, reference[: top + 1],
        "n={n}: series gives {a}, reference says {b}",
    ))


def check_enumeration_matches_series(max_n: int) -> CheckResult:
    """Brute-force avoider counts equal the gf_full coefficients for n >= 1
    (the n = 0 term is compared with A164651 by ``check_reference_counts``)."""
    counts = (
        sum(1 for _ in enumerate_avoiders(n, AVOIDED_PAIR)) for n in range(1, max_n + 1)
    )
    return _routes("enumeration_matches_series", f"n<={max_n}", (
        1, counts, _once(gf_full, max_n).coeffs,
        "n={n}: enumeration counts {a}, series gives {b}",
    ))


def check_walk_matches_series(max_n: int) -> CheckResult:
    """``count_class``, the code behind ``avoiders count``, meets each walked
    class's series for 1 <= n <= max_n: pair F (G start-small), 123 C ((1-x)C
    start-small).  ``check_enumeration_matches_series`` ties F to brute force."""
    def walk(*spec):
        return (count_class(ClassDescriptor(n, *spec)) for n in range(1, max_n + 1))

    f, g = _once(gf_full, max_n).coeffs, _once(gf_start_small, max_n).coeffs
    c = catalan_series(max_n)
    return _routes(
        "walk_matches_series", f"n<={max_n}",
        (1, walk(AVOIDED_PAIR), f, "n={n}: pair walk gives {a}, series gives {b}"),
        (1, walk(AVOIDED_PAIR, True), g, "n={n}: start-small walk gives {a}, G gives {b}"),
        (1, walk((PATTERN_123,)), c.coeffs, "n={n}: 123 walk gives {a}, C gives {b}"),
        (1, walk((PATTERN_123,), True), (c * poly(max_n, 1, -1)).coeffs,
         "n={n}: start-small 123 walk gives {a}, (1-x)C gives {b}"),
    )


def check_no_key_implies_123_avoiding(max_n: int) -> CheckResult:
    """Any permutation without key mid-123 entries has no mid-123 entries at all."""
    counterexamples = (
        f"counterexample {format_perm(perm)}"
        for n in range(1, max_n + 1)
        for perm in itertools.permutations(range(1, n + 1))
        if not key_mid123_entries(perm) and mid123_entries(perm)
    )
    scope = f"all permutations, n<={max_n}"
    return _result("no_key_implies_123_avoiding", scope, counterexamples)


def _entries_above_failures(max_n: int) -> Iterator[str]:
    for n in range(1, max_n + 1):
        for perm in enumerate_avoiders(n, AVOIDED_PAIR):
            mids = mid123_entries(perm)
            if not mids:
                continue
            j = mids[-1]
            above = [x for x in perm[j:] if x > perm[j - 1]]
            if len(above) != 1:
                yield (
                    f"{format_perm(perm)}: {len(above)} entries above the last "
                    f"mid-123 entry {perm[j - 1]}"
                )


def check_unique_entry_above_last_mid123(max_n: int) -> CheckResult:
    """In a {1243, 2134}-avoider, exactly one entry after the last mid-123
    entry exceeds it."""
    failures = _entries_above_failures(max_n)
    return _result("unique_entry_above_last_mid123", f"avoiders, n<={max_n}", failures)


def check_phi_roundtrip(max_n: int) -> CheckResult:
    """phi_inverse(phi(p)) = p over all start-small avoiders."""
    moved = (
        f"round trip moved {format_perm(perm)}"
        for n in range(1, max_n + 1)
        for perm in _once(_start_small, n, AVOIDED_PAIR)
        if phi_inverse(phi(perm)) != perm
    )
    return _result("phi_roundtrip", f"start-small avoiders, n<={max_n}", moved)


def _valid_pairs(max_total_len: int) -> Iterator[tuple[Perm, Perm]]:
    # sigma1 ranges over start-small {1243, 2134}-avoiders, sigma2 over
    # start-small 123-avoiders, both of length >= 2.
    lengths = range(2, max_total_len - 1)
    lefts = {m: _once(_start_small, m, AVOIDED_PAIR) for m in lengths}
    rights = {m: _once(_start_small, m, (PATTERN_123,)) for m in lengths}
    for len1 in lengths:
        for len2 in range(2, max_total_len - len1 + 1):
            for sigma1 in lefts[len1]:
                for sigma2 in rights[len2]:
                    yield sigma1, sigma2


def _pair_roundtrip_failures(max_total_len: int) -> Iterator[str]:
    for sigma1, sigma2 in _valid_pairs(max_total_len):
        rebuilt = recompose(sigma1, sigma2)
        step = decompose(rebuilt)
        if step.pair != (sigma1, sigma2):
            yield (
                f"({format_perm(sigma1)}, {format_perm(sigma2)}) -> "
                f"{format_perm(rebuilt)} -> ({format_perm(step.sigma1)}, "
                f"{format_perm(step.sigma2)})"
            )


def check_pair_roundtrip(max_total_len: int) -> CheckResult:
    """decompose(recompose(sigma1, sigma2)) = (sigma1, sigma2) over all valid
    pairs with len(sigma1) + len(sigma2) <= max_total_len."""
    scope = f"valid pairs, combined length<={max_total_len}"
    return _result("pair_roundtrip", scope, _pair_roundtrip_failures(max_total_len))


def _typing_failures(max_n: int) -> Iterator[str]:
    # A factor shorter than its input and in the start-small table for its
    # length, the pair's or 123's, avoids that class's patterns and has the
    # key count the table holds; the matchers judge any other factor.
    @functools.cache  # outside a run ``_once`` keeps nothing
    def table(m: int, patterns: tuple[Perm, ...]) -> dict[Perm, int]:
        return _once(_start_small, m, patterns)

    for n in range(1, max_n + 1):
        for perm, k in table(n, AVOIDED_PAIR).items():
            if not k:
                continue
            try:
                step = decompose(perm)
            except RuntimeError as exc:
                yield str(exc)
                continue
            sigma1, sigma2 = step.pair
            lefts = table(len(sigma1), AVOIDED_PAIR) if 0 < len(sigma1) < n else {}
            if sigma1 in lefts:
                avoider, keys = True, lefts[sigma1]
            else:
                avoider, keys = avoids(sigma1, AVOIDED_PAIR), len(key_mid123_entries(sigma1))
            rights = table(len(sigma2), (PATTERN_123,)) if 0 < len(sigma2) < n else {}
            avoids_123 = sigma2 in rights or not contains(sigma2, PATTERN_123)
            postconditions = (
                ("sigma1 length != j", len(sigma1) == step.j),
                ("sigma2 length != n + 1 - j", len(sigma2) == n + 1 - step.j),
                ("sigma1 not start-small", is_start_small(sigma1)),
                ("sigma2 not start-small", is_start_small(sigma2)),
                ("sigma1 not an avoider", avoider),
                ("sigma2 contains 123", avoids_123),
                ("sigma1 key count != k - 1", keys == k - 1),
            )
            problems = [text for text, holds in postconditions if not holds]
            if problems:
                yield (
                    f"decompose({format_perm(perm)}) broke its contract: "
                    + "; ".join(problems)
                )


def check_decomposition_typing(max_n: int) -> CheckResult:
    """Each decomposition lands where it should: sigma1 start-small avoider of
    length j with one fewer key mid-123 entry, sigma2 start-small 123-avoider
    of length n + 1 - j.  These are the postconditions of ``decompose``,
    stated nowhere else; a guard tripped inside it is reported as well."""
    scope = f"start-small avoiders, n<={max_n}"
    return _result("decomposition_typing", scope, _typing_failures(max_n))


def _class_product_failures(max_n: int) -> Iterator[str]:
    count = functools.cache(count_class)
    for n in range(1, max_n + 1):
        cells = collections.Counter(
            (k, mid123_entries(perm)[-1])
            for perm, k in _once(_start_small, n, AVOIDED_PAIR).items()
            if k
        )
        for k in range(1, n - 1):
            for j in range(k + 1, n):
                left = count(ClassDescriptor(j, AVOIDED_PAIR, True, k - 1))
                right = count(ClassDescriptor(n + 1 - j, (PATTERN_123,), True))
                if cells[k, j] != left * right:
                    yield f"n={n}, k={k}, j={j}: class size {cells[k, j]} != {left} * {right}"


def check_class_product_identity(max_n: int) -> CheckResult:
    """|{start-small avoiders of [n], k keys, last mid-123 at j}| equals
    |{same of [j], k-1 keys}| * |{start-small 123-avoiders of [n+1-j]}|."""
    return _result("class_product_identity", f"n<={max_n}", _class_product_failures(max_n))


def _golden_failures() -> Iterator[str]:
    # Every discrepancy with the golden table, in checking order.
    for case, perm, pair, key_case, witnesses, params in GOLDEN_EXAMPLES:
        step = decompose(perm)
        if step.pair != pair or step.key_case != key_case:
            yield f"{case} split gave {step.pair}"
        for field, expected in witnesses.items():
            actual = getattr(step, field)
            if actual != expected:
                yield f"{case} {field}: expected {expected}, got {actual}"
        derived = inverse_params(*pair)
        for field, expected in params.items():
            actual = getattr(derived, field)
            if actual != expected:
                yield f"{case} inverse {field}: expected {expected}, got {actual}"
        if recompose(*pair) != perm:
            yield f"{case} recompose missed the input"


def check_golden_examples() -> CheckResult:
    """The two fixed worked decompositions reproduce exactly, both ways,
    including every intermediate witness."""
    return _result("golden_examples", "2 fixed decompositions", _golden_failures())


def _series_identity_failures(order: int) -> Iterator[str]:
    one = poly(order, 1)
    x = poly(order, 0, 1)
    c = catalan_series(order)
    if c * c * x + one != c:
        yield "C != 1 + x*C^2"
    s = sqrt_one_minus_4x(order)
    if s * s != poly(order, 1, -4):
        yield "sqrt(1-4x)^2 != 1-4x"
    # The dense cube is the oracle for the list elements' series.
    cube = c * c * c
    a = x * cube
    b = invert_transform(a)
    if (one + b) * (one - a) != one:
        yield "(1+B)(1-A) != 1"
    if _once(gf_start_small, order) != _once(gf_full, order) * poly(order, 1, -1):
        yield "(1-x)F != G"
    # [x^n] C^3 counts start-small 123-avoiders of [n+2], checked to n = 8.
    c3 = cube.coeffs
    for n in range(1, min(8, order) + 1):
        descriptor = ClassDescriptor(n + 2, (PATTERN_123,), True)
        counted = sum(1 for _ in enumerate_class(descriptor))
        if c3[n] != counted:
            yield f"[x^{n}]C^3 = {c3[n]} but [{n + 2}] has {counted} start-small 123-avoiders"
    if a != gf_elements(order):
        yield "x*C^3 != gf_elements"


def check_series_identities(order: int) -> CheckResult:
    """The defining series identities, exact to the given order, plus the
    combinatorial meaning of C^3 and of the list transform checked against
    the enumeration oracle, and ``gf_elements`` held to the dense x*C^3."""
    failures = _series_identity_failures(order)
    return _result("series_identities", f"order {order}", failures)


def check_closed_form_match(order: int) -> CheckResult:
    """The composition-transform route and the closed form agree coefficient
    by coefficient."""
    return _routes("closed_form_match", f"order {order}", (
        0, _once(gf_full, order).coeffs, kotesovec_series(order).coeffs,
        "n={n}: transform route {a}, closed form {b}",
    ))


def run_checks(max_n: int = 8, order: int = 100, deep: bool = False) -> list[CheckResult]:
    """
    The full battery.  ``max_n`` bounds the exhaustive sweeps; ``deep`` raises
    it to at least 10 and the enumeration-vs-series comparison to at least
    n = 11 (minutes instead of seconds).  The walks behind ``count`` meet their
    series to n = 12, or n = 20 with ``deep``, whatever ``max_n`` is.
    """
    global _store
    oracle_n = max(max_n, 11) if deep else max_n
    max_n = max(max_n, 10) if deep else max_n
    _store = {}
    try:
        return [
            check_reference_counts(order),
            check_enumeration_matches_series(oracle_n),
            check_walk_matches_series(20 if deep else 12),
            check_no_key_implies_123_avoiding(max_n),
            check_unique_entry_above_last_mid123(max_n),
            check_phi_roundtrip(max_n),
            check_pair_roundtrip(max_n + 1),
            check_decomposition_typing(max_n),
            check_class_product_identity(max_n),
            check_golden_examples(),
            check_series_identities(order),
            check_closed_form_match(order),
        ]
    finally:
        _store = None


def render_report(results: list[CheckResult]) -> str:
    """Fixed-width table, one line per check, plus an overall verdict."""
    name_w = max(len(r.name) for r in results)
    scope_w = max(len(r.scope) for r in results)
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        line = f"{r.name:<{name_w}}  {r.scope:<{scope_w}}  {status}"
        if r.detail:
            line += f"  {r.detail}"
        lines.append(line)
    overall = "pass" if all(r.passed for r in results) else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines)
