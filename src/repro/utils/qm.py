"""Quine–McCluskey two-level Boolean minimisation.

The DCS tool flow expresses every parameterised configuration bit as a
Boolean function of the mode bits (paper Fig. 4: e.g. ``m0.1 + ~m0.0``
simplifies to ``m0``).  Internally the flow stores these functions as
*on-sets* over mode indices; this module turns an on-set into a minimal
sum-of-products for reporting and the reconfiguration manager's
evaluation tables.

The number of mode bits is tiny (a multi-mode circuit has a handful of
modes), so exact Quine–McCluskey with a greedy-plus-exact cover is more
than fast enough.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence, Set, Tuple

# A term is (value, mask): bit positions in `mask` are don't-care.
Term = Tuple[int, int]


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _combine(a: Term, b: Term) -> Term:
    """Combine two implicants differing in exactly one cared-for bit.

    Raises ``ValueError`` when they cannot be combined.
    """
    va, ma = a
    vb, mb = b
    if ma != mb:
        raise ValueError("masks differ")
    diff = va ^ vb
    if _popcount(diff) != 1:
        raise ValueError("values differ in more than one bit")
    return (va & ~diff, ma | diff)


def _covers(term: Term, minterm: int) -> bool:
    value, mask = term
    return (minterm & ~mask) == (value & ~mask)


def prime_implicants(minterms: Sequence[int], n_bits: int) -> List[Term]:
    """Return all prime implicants of the on-set *minterms*.

    *n_bits* is the number of input variables.  Minterms must lie in
    ``[0, 2**n_bits)``.
    """
    for m in minterms:
        if not 0 <= m < (1 << n_bits):
            raise ValueError(f"minterm {m} out of range for {n_bits} bits")
    current: Set[Term] = {(m, 0) for m in set(minterms)}
    primes: Set[Term] = set()
    while current:
        combined: Set[Term] = set()
        used: Set[Term] = set()
        terms = sorted(current)
        for a, b in combinations(terms, 2):
            try:
                c = _combine(a, b)
            except ValueError:
                continue
            combined.add(c)
            used.add(a)
            used.add(b)
        primes.update(t for t in current if t not in used)
        current = combined
    return sorted(primes)


def _essential_cover(
    primes: Sequence[Term], minterms: Sequence[int]
) -> List[Term]:
    """Select a small cover of *minterms* from *primes*.

    Essential primes are taken first; the remainder is covered greedily
    (largest remaining coverage, ties broken by fewest literals).  For
    the tiny mode-bit functions in this package the greedy step is
    almost always exact.
    """
    remaining: Set[int] = set(minterms)
    cover: List[Term] = []
    # Essential primes: the only prime covering some minterm.
    for m in sorted(remaining):
        covering = [p for p in primes if _covers(p, m)]
        if len(covering) == 1 and covering[0] not in cover:
            cover.append(covering[0])
    for p in cover:
        remaining -= {m for m in remaining if _covers(p, m)}
    # Greedy cover of what is left.
    candidates = [p for p in primes if p not in cover]
    while remaining:
        best = max(
            candidates,
            key=lambda p: (
                len({m for m in remaining if _covers(p, m)}),
                _popcount(p[1]),  # prefer more don't-cares = fewer literals
            ),
        )
        gained = {m for m in remaining if _covers(best, m)}
        if not gained:
            raise RuntimeError("on-set not coverable by prime implicants")
        cover.append(best)
        candidates.remove(best)
        remaining -= gained
    return cover


def minimize_boolean(minterms: Sequence[int], n_bits: int) -> List[Term]:
    """Return a minimal-ish sum-of-products cover of the on-set.

    Returns a list of ``(value, mask)`` terms.  An empty list means
    constant False; a single term with full mask means constant True.
    """
    unique = sorted(set(minterms))
    if not unique:
        return []
    if len(unique) == 1 << n_bits:
        return [(0, (1 << n_bits) - 1)]
    primes = prime_implicants(unique, n_bits)
    return _essential_cover(primes, unique)


def term_to_string(
    term: Term, n_bits: int, names: Sequence[str] = ()
) -> str:
    """Render one implicant as a product of literals, e.g. ``m1.~m0``.

    Variable *i* corresponds to bit *i* (bit 0 = least significant =
    ``m0``).  Literals are printed most-significant first, matching the
    paper's ``m1 m0`` ordering.
    """
    value, mask = term
    if mask == (1 << n_bits) - 1:
        return "1"
    literals = []
    for bit in reversed(range(n_bits)):
        if mask & (1 << bit):
            continue
        name = names[bit] if bit < len(names) else f"m{bit}"
        literals.append(name if value & (1 << bit) else f"~{name}")
    return ".".join(literals)


def expression_to_string(
    terms: Sequence[Term], n_bits: int, names: Sequence[str] = ()
) -> str:
    """Render a sum-of-products as a string, e.g. ``m1.~m0 + m0``."""
    if not terms:
        return "0"
    return " + ".join(term_to_string(t, n_bits, names) for t in terms)


def evaluate_terms(terms: Sequence[Term], assignment: int) -> bool:
    """Evaluate a sum-of-products at the input *assignment* (bit vector)."""
    return any(_covers(t, assignment) for t in terms)
