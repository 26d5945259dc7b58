"""The length-reducing decomposition of start-small {1243, 2134}-avoiders.

``decompose`` maps a start-small {1243, 2134}-avoider with k >= 1 key
mid-123 entries, last mid-123 entry at position j, to a pair (sigma1,
sigma2): sigma1 a start-small {1243, 2134}-avoider of length j with k - 1
key mid-123 entries, sigma2 a start-small 123-avoider of length n + 1 - j.
``recompose`` inverts it.  ``phi`` iterates ``decompose`` until the first
component is 123-avoiding, turning a start-small avoider of length n with k
key mid-123 entries into a list of k + 1 start-small 123-avoiders whose
lengths sum to n + k; ``phi_inverse`` folds the list back up with
``recompose``.

Construction of ``decompose(pi)``, writing pi = tau1, b, tau2 with b the
last mid-123 entry:

- a is the smallest entry of tau1 (the bottom of an ascending triple through
  b with the smallest possible bottom), and c is the unique entry after b
  that exceeds b;
- sigma2 = standardize(a followed by tau2);
- if b is key, sigma1 = standardize(tau1 followed by c);
- otherwise, drop from tau1 the longest terminal run that is decreasing and
  stays below c (its length is r >= 1), shift everything remaining, plus c,
  up by r, append r, r-1, ..., 1, and standardize.

``decompose`` and ``phi`` share one private core, ``_splits``, a generator
over the chain of splits ``phi`` makes.  It rests on a prefix lemma: a step
keeps a prefix of its word (tau1, less the dropped run in the drop case)
and appends c, then in the drop case r values below everything.  As c is
the largest entry from b on, each kept entry keeps its smallest earlier
and largest later entry, and no appended one is a mid-123 entry.  So each
split is a mid-123 entry of the input, left of the one before, with a and
c read off the input: one leftward scan, reseeded at each split with c and
the staircase, finds them all, each a read off the prefix minima that one
loop of comparisons lists first.  ``decompose`` takes the first step;
``phi`` takes every step and standardizes the last word once, in
O(n log n) for length n.  ``phi_inverse`` is the fold of ``recompose`` computed on one list
(see below): a step costs a C-level ``list.index`` scan of the word, O(s)
Python work, as ``_inverse_params`` walks sigma1's increasing terminal run
(s entries; the whole word on the identity) and ``_recompose`` rewrites s - 1
of them, and sigma2's tail; one ``is_permutation`` guard sorts the result.

``recompose`` reads all of its parameters straight off the pair: the r-step
staircase at the end of sigma1, the positions of min(mu) and max(sigma2),
and the longest increasing terminal run of sigma1 between them recover where
a and c sat and what value filled the seam.  Rebuilding pi raises every
entry of sigma1 by q = len(sigma2) - 1 except s + 1 slots (the s - 1 slots
of that run, raised by q - 1, the seam and a's slot) and appends sigma2
less its first entry, with c written into its slot.  So ``_recompose(first,
rest)``, the one private path behind ``recompose`` (one step) and
``phi_inverse`` (every step), holds its accumulator as a list plus one
offset added to every entry: a step raises the offset by q and writes only
those s + 1 slots and the new tail.

Validation contract: each public entry point takes lists as well as tuples,
checks its inputs once, each in one scan (``perms.avoids_pair`` for an
avoider, the element scan for a 123-avoider), and raises ``ValueError``
naming the offending role.  Only a rejected input, of either class, reaches
``_reject``: ``is_permutation``, ``contains`` per forbidden pattern (1243
first) and start-small word the message; an input passing all three means a
faulty scan (``RuntimeError``).  The private cores (``_splits``,
``_inverse_params``, ``_recompose``) trust their inputs, keep only cheap
``RuntimeError`` guards and pass plain tuples; only ``decompose`` and
``inverse_params`` build the ``DecompositionStep`` and ``InverseParams``
dataclasses.  Each result of ``recompose`` and ``phi_inverse`` gets one
``is_permutation`` guard, inside ``_recompose``, and a fault inside any step
is a ``RuntimeError`` naming the call (CLI exit 3), never a ``ValueError``;
no intermediate word of the fold is built, so none is checked.  ``phi`` and
``phi_inverse`` chain the cores' steps without re-checking, which is sound
because every step stays in its class:
``avoiders.verify`` checks exactly that (decomposition typing, both round
trips) exhaustively at small lengths.
The postconditions of ``decompose`` are stated only there, in
``verify.check_decomposition_typing``; this module does not re-check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .perms import (
    AVOIDED_PAIR,
    PATTERN_123,
    _rank,
    _start_small_123_avoider,
    avoids_pair,
    contains,
    format_perm,
    is_permutation,
    is_start_small,
    parse_perm,
)

Perm = tuple[int, ...]


@dataclass(frozen=True)
class DecompositionStep:
    """One application of ``decompose``: the image pair plus its witnesses."""

    sigma1: Perm
    sigma2: Perm
    b_value: int
    a_value: int
    c_value: int
    j: int  # position of the last mid-123 entry in the input
    r: int  # number of entries dropped from tau1; 0 exactly in the key case

    @property
    def key_case(self) -> bool:
        return self.r == 0

    @property
    def pair(self) -> tuple[Perm, Perm]:
        return (self.sigma1, self.sigma2)


@dataclass(frozen=True)
class InverseParams:
    """Everything ``recompose`` derives from a (sigma1, sigma2) pair."""

    n: int
    j: int
    r: int
    p: int  # j - r, the length of the non-staircase part mu of sigma1
    q: int  # len(sigma2) - 1
    i_pos: int  # position of a in the rebuilt permutation
    k_pos: int  # position of c in the rebuilt permutation
    a_value: int
    c_value: int
    s: int  # longest increasing terminal run of sigma1[i_pos+1 .. p]


def _require_avoider(perm: Perm, role: str) -> None:
    if not (avoids_pair(perm) and is_start_small(perm)):
        _reject(perm, role, AVOIDED_PAIR, "contains the forbidden pattern {}")


def _require_element(perm: Perm, role: str, *role_args: object) -> None:
    # The role is ``role.format(*role_args)``, formatted only on refusal.
    if not _start_small_123_avoider(perm):
        _reject(perm, role.format(*role_args), (PATTERN_123,), "is not a 123-avoider")


def _reject(perm: Perm, role: str, patterns: tuple[Perm, ...], holds: str) -> None:
    # Always raises; ``holds`` words a pattern found, with ``{}`` for its name.
    if not is_permutation(perm):
        raise ValueError(f"{role} is not a permutation of 1..n: {perm!r}")
    for q in patterns:
        if contains(perm, q):
            raise ValueError(f"{role} " + holds.format(format_perm(q)))
    if is_start_small(perm):
        raise RuntimeError(f"the one-scan check and contains disagree on {role}: {perm!r}")
    raise ValueError(f"{role} is not start-small: it begins with its largest entry")


def decompose(perm: Perm) -> DecompositionStep:
    """
    Split a start-small {1243, 2134}-avoider with at least one key mid-123
    entry into the pair (sigma1, sigma2) described in the module docstring.
    """
    perm = tuple(perm)
    _require_avoider(perm, "input")
    for sigma2, j, a, c, r in _splits(perm):
        return DecompositionStep(_sigma1(perm, j, c, r), sigma2, perm[j - 1], a, c, j, r)
    raise ValueError("input is 123-avoiding: no mid-123 entry to split at")


def _splits(perm: Perm) -> Iterator[tuple[Perm, int, int, int, int]]:
    # phi's splits of the start-small avoider perm, as (sigma2, j, a, c, r): each
    # splits perm[:m] + tail (the last split's c and staircase) at an entry t.
    lows, low = [], len(perm)  # prefix minima, by comparison (see ``perms``)
    for v in perm:
        if v < low:
            low = v
        lows.append(low)
    m, tail, high, second = len(perm), (), 0, 0  # the two largest after t
    t = m - 1
    while t > 0:
        b = perm[t]
        if not lows[t - 1] < b < high:
            if b > high:
                high, second = b, high
            elif b > second:
                second = b
            t -= 1
            continue
        a, c, j = lows[t - 1], high, t + 1
        if second > b:
            above = [x for x in perm[j:m] + tail if x > b]
            raise RuntimeError(
                f"expected exactly one entry above the last mid-123 entry, found {above!r}"
            )
        sigma2 = _rank((a,) + perm[j:m] + tail)
        # Key iff the predecessor of b is smaller or a right-to-left maximum;
        # c is the largest entry after it.  Otherwise drop the longest
        # terminal run of tau1 = perm[:t] that is decreasing and stays below c.
        s = t
        if c > perm[t - 1] > b:
            s -= 1
            while s and c > perm[s - 1] > perm[s]:
                s -= 1
        yield sigma2, j, a, c, t - s
        m, tail, high, second, t = s, (c, *range(0, s - t, -1)), c, 0, s - 1


def _sigma1(perm: Perm, j: int, c: int, r: int) -> Perm:
    # The kept prefix and c, standardized above the staircase r, ..., 1.
    kept = _rank(perm[: j - 1 - r] + (c,))
    return (*map(r.__add__, kept), *range(r, 0, -1)) if r else kept


def inverse_params(sigma1: Perm, sigma2: Perm) -> InverseParams:
    """
    Derive the reconstruction parameters for a valid (sigma1, sigma2) pair.

    sigma1 must be a start-small {1243, 2134}-avoider and sigma2 a
    start-small 123-avoider; being start-small, both have length >= 2.
    """
    sigma1, sigma2 = tuple(sigma1), tuple(sigma2)
    _require_avoider(sigma1, "sigma1")
    _require_element(sigma2, "sigma2")
    return InverseParams(*_inverse_params(sigma1, sigma2))


def _inverse_params(sigma1: Sequence[int], sigma2: Perm, off: int = 0) -> tuple[int, ...]:
    # The ten fields of ``InverseParams``, in order, for the pair whose
    # sigma1 has entries sigma1[i] + off (``_recompose`` keeps its word so).
    j = len(sigma1)
    n = j + len(sigma2) - 1
    r = 0  # maximal staircase r, r-1, ..., 1 at the end of sigma1
    while r < j and sigma1[j - 1 - r] + off == r + 1:
        r += 1
    p = j - r
    q = len(sigma2) - 1
    # Permutations: mu = sigma1[:p] has minimum r + 1, sigma2 maximum q + 1.
    i_pos = sigma1.index(r + 1 - off) + 1
    k_pos = j - 1 + sigma2.index(q + 1) + 1
    a = sigma2[0]
    c = sigma1[p - 1] + off + q
    if i_pos == p:
        raise RuntimeError("minimum of mu sits at its last position")
    # Longest increasing terminal run of sigma1[i_pos:p].
    s = 1
    while s < p - i_pos and sigma1[p - s - 1] < sigma1[p - s]:
        s += 1
    return n, j, r, p, q, i_pos, k_pos, a, c, s


def recompose(sigma1: Perm, sigma2: Perm) -> Perm:
    """
    Rebuild the unique start-small {1243, 2134}-avoider that ``decompose``
    would split into (sigma1, sigma2).
    """
    sigma1, sigma2 = tuple(sigma1), tuple(sigma2)
    _require_avoider(sigma1, "sigma1")
    _require_element(sigma2, "sigma2")
    return _recompose(
        sigma1, (sigma2,), lambda: f"recompose({format_perm(sigma1)}, {format_perm(sigma2)})"
    )


def _recompose(first: Perm, rest: Sequence[Perm], call: Callable[[], str]) -> Perm:
    # recompose folded over rest from first, guarded; call() gives the call
    # text, built only when a guard fires.  The accumulator is word[i] + off;
    # a step raises off by q and writes only the s + 1 slots it does not raise
    # by q, and sigma2's tail.  A faulty step makes the next list.index raise.
    word, off = list(first), 0
    for step, sigma2 in enumerate(rest, start=1):
        try:
            n, j, r, p, q, i_pos, k_pos, a, c, s = _inverse_params(word, sigma2, off)
        except ValueError as exc:
            raise RuntimeError(f"{call()} failed at step {step}: {exc}") from exc
        off += q
        for t in range(p - s, p - 1):
            word[t] -= 1
        word[p - 1] = n - j + r + s - off
        # The slots where a and c belong may hold duplicated placeholder
        # values until these writes.
        word[i_pos - 1] = a - off
        word += [x - off for x in sigma2[1:]]
        word[k_pos - 1] = c - off
    result = tuple([x + off for x in word])
    if not is_permutation(result):
        raise RuntimeError(f"{call()} produced a non-permutation {result!r}")
    return result


def phi(perm: Perm) -> tuple[Perm, ...]:
    """
    Iterate ``decompose`` on a start-small {1243, 2134}-avoider until the
    surviving first component is 123-avoiding.

    Returns the list (fully reduced 123-avoider first, then the split-off
    second components in reverse order of extraction).  An input with no
    mid-123 entries maps to the singleton list of itself.

    >>> phi((1, 2, 3, 4, 5))
    ((1, 2), (1, 2), (1, 2), (1, 2))
    >>> phi((3, 4, 1, 2))
    ((3, 4, 1, 2),)
    """
    perm = tuple(perm)
    _require_avoider(perm, "input")
    splits = [*_splits(perm)]
    if not splits:
        return (perm,)
    _, j, _, c, r = splits[-1]
    return (_sigma1(perm, j, c, r), *[split[0] for split in reversed(splits)])


def phi_inverse(elements: tuple[Perm, ...]) -> Perm:
    """
    Fold a list of start-small 123-avoiders (each of length >= 2) back into
    the start-small {1243, 2134}-avoider that ``phi`` maps to it.  The result
    equals the left fold of ``recompose``: the first element seeds the
    accumulator and every later element e replaces it with
    ``recompose(acc, e)``.  It is computed on one list, each step raising a
    shared offset and writing only the entries that step changes, and the
    result is checked to be a permutation once.

    Only the elements after the first feed the 123-avoider side of
    ``recompose``, so the first may be any start-small {1243, 2134}-avoider:
    that folds partially decomposed lists too.  On lists whose first element
    is itself 123-avoiding this is exactly the inverse of ``phi``.

    >>> phi_inverse(((1, 2), (1, 2), (1, 2), (1, 2)))
    (1, 2, 3, 4, 5)
    """
    elements = tuple(map(tuple, elements))
    if not elements:
        raise ValueError("list must be nonempty")
    first, *rest = elements
    _require_avoider(first, "element 1")
    for idx, element in enumerate(rest, start=2):
        _require_element(element, "element {}", idx)
    if not rest:
        return first
    return _recompose(first, rest, lambda: f"phi_inverse({format_perm_list(elements)})")


def format_perm_list(perms: tuple[Perm, ...]) -> str:
    """Render a list of permutations, elements joined by `` | ``."""
    return " | ".join(format_perm(p) for p in perms)


def parse_perm_list(text: str) -> tuple[Perm, ...]:
    """Parse the `` | ``-joined list format back into a tuple of permutations."""
    return tuple(parse_perm(part) for part in text.split("|"))
