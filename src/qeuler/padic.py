"""Numeric cross-check mod p^M: truncated alternating sums.

For an odd prime p, a precision M, and an integer base q0 with
p | (q0 - 1), the truncated alternating sum

    S_N = sum_{y=0}^{p^N - 1} (-q0)^y (x0 + y)^n      (mod p^M)

converges p-adically to the value of the n-th q-Euler polynomial at x0
with q = q0.  This module computes the sums and the targets exactly in
Z/p^M with big-integer arithmetic (never machine words), and reports
the p-adic valuation of the truncation error depth by depth.  No
q-Euler value enters the sums, so they check the symbolic side from
outside.

The sums are not formed term by term.  With the moments

    T_k(N) = sum_{y < p^N} (-q0)^y (x0 + y)^k      (mod p^M),  k <= n,

the base case is T_k(0) = x0^k (the single term y = 0, with 0^0 = 1),
and splitting y = j p^N + y' with j < p gives the exact step

    T_a(N+1) = sum_{k <= a} C(a, k) G_{a-k} T_k(N),
    G_i = sum_{j < p} g^j (j p^N)^i,   g = (-q0)^(p^N).

The block sums G_i = p^(N i) A_i need no loop over j either: shifting
j -> j + 1 in A_i = sum_{j < p} g^j j^i gives

    (1 - g) A_i = [i = 0] - g^p p^i + g sum_{k < i} C(i, k) A_k,

and 1 - g is a unit because g = -1 mod p.  p^N and g are carried as
residues mod p^M (g advances by g <- g^p), so one depth costs O(n^2)
residue operations plus one g^p, whatever p is, instead of p^N terms;
S_N = T_n(N).  Only the moment step depends on x0, and T_k(N) is S_N
at degree k, so one recursion per ``qeuler padic`` command serves every
``--x0`` and every degree up to ``--n-max``: per depth, one block row
G_0 .. G_n and one g^p, then O(n_max^2) residue operations per x0.

Each target is the ``euler`` definition E_n(x0, q0) =
sum_l C(n, l) E_l(q0) x0^(n-l) carried through the ring map
Z_(p) -> Z/p^M.  The recurrence divides by 1 + q only, so E_l(q0) has
a power of 1 + q0 = 2 mod p as denominator, a unit for odd p; each
E_l(q0) is embedded once by inverting it mod p^M, and the sum is
formed mod p^M.  Each depth's valuation is read from the bare residue
(S_N - target) mod p^M by ``_valuation``, which ``PAdic.valuation``
calls too; no ``PAdic`` is built per depth.

The step proves the truncation floor.  q0 = 1 mod p gives
g = (-q0)^(p^N) = -1 mod p^(N+1), so G_0 - 1 = g (1 - g^(p-1)) / (1 - g)
= 0 mod p^(N+1), while G_i = p^(N i) A_i = 0 mod p^N for i >= 1.  Hence
T(N+1) = T(N) mod p^N: every later S_N', and so the limit E_n(x0, q0),
agrees with S_N mod p^N, and v_N >= min(N, M) at every depth.
Monotonicity is not expected: S_1 can agree with the target to more
digits than S_2 does, so a valuation sequence may dip while it meets
the floor at every depth.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import comb

from .euler import _check_cap, euler_number_q
from .identities import VerificationResult, _Record

__all__ = [
    "NonUnitError",
    "is_odd_prime",
    "PAdic",
    "padic_from_rational",
    "fermionic_partial_sum",
    "DepthEntry",
    "ConvergenceReport",
    "witt_convergence_check",
    "shift_identity_check_numeric",
    "CALIBRATED_SLACK",
]

#: Slack in the truncation floor v_N >= min(N - CALIBRATED_SLACK, M), as
#: the CLI prints it.  The module docstring proves the floor min(N, M),
#: so the slack is zero: precision M is reached by depth N = M.
CALIBRATED_SLACK = 0


class NonUnitError(ValueError):
    """A denominator divisible by p cannot be inverted mod p^M."""


#: The first 13 primes.  No composite below _PRIMALITY_BOUND is a strong
#: pseudoprime to all of them (Sorenson and Webster, "Strong pseudoprimes
#: to twelve prime bases", Math. Comp. 86 (2017)), so Miller-Rabin on
#: these bases decides primality exactly below the bound.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality, restricted to odd primes.

    Exact for p < _PRIMALITY_BOUND; raises ValueError at or above it.
    """
    if p >= _PRIMALITY_BOUND:
        raise ValueError(
            f"p={p} is at or above {_PRIMALITY_BOUND}, beyond the exact "
            "primality test"
        )
    if p < 3 or p % 2 == 0:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        if a % p == 0:
            continue
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_ints(**values: int) -> None:
    for name, value in values.items():
        if type(value) is not int:  # a bool is refused too
            raise TypeError(f"{name} must be an int, got {value!r}")


def _check_parameters(p: int, M: int) -> None:
    _check_ints(p=p, M=M)
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if M < 1:
        raise ValueError(f"precision M must be at least 1, got {M}")


def _check_base(q0: int, p: int) -> None:
    if (q0 - 1) % p != 0:
        raise ValueError(
            f"base q0={q0} must satisfy q0 = 1 mod p (p={p}) so that the "
            "alternating sums converge"
        )


class PAdic(_Record):
    """A residue in Z/p^M, tagged with p and the precision exponent M."""

    __slots__ = ("p", "M", "residue")

    def __init__(self, p: int, M: int, residue: int) -> None:
        _check_ints(residue=residue)
        _check_parameters(p, M)
        super().__init__(p, M, residue % p**M)

    @classmethod
    def _checked(cls, p: int, M: int, residue: int) -> "PAdic":
        """Build a residue for a (p, M) that has passed _check_parameters.

        The sums use this, so p is tested for primality by the public
        entry points only, not again for every residue.
        """
        value = object.__new__(cls)
        _Record.__init__(value, p, M, residue % p**M)
        return value

    @property
    def is_zero(self) -> bool:
        return self.residue == 0

    def valuation(self) -> int:
        """v_p of the residue, capped at M (the zero residue reports M)."""
        return _valuation(self.residue, self.p, self.M)

    def to_json(self) -> dict:
        return {"p": self.p, "M": self.M, "residue": str(self.residue)}

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.p}^{self.M})"


def _valuation(residue: int, p: int, M: int) -> int:
    """v_p of a residue in [0, p^M), capped at M (zero reports M).

    Divides by p, p^2, p^4, ... while they divide, then takes the same
    powers back down once each, so the cost is logarithmic in the
    valuation.
    """
    if residue == 0:
        return M
    r = residue
    powers = []
    power = p
    while r % power == 0:
        r //= power
        powers.append(power)
        power *= power
    v = (1 << len(powers)) - 1
    for k in reversed(range(len(powers))):
        if r % powers[k] == 0:
            r //= powers[k]
            v += 1 << k
    return v


def padic_from_rational(r: Fraction, p: int, M: int) -> PAdic:
    """Embed an exact rational into Z/p^M via modular denominator inversion.

    Raises NonUnitError when p divides the denominator.
    """
    if type(r) is not int and not isinstance(r, Fraction):  # refuses a bool
        raise TypeError(f"padic_from_rational needs an int or Fraction: {r!r}")
    _check_parameters(p, M)
    return PAdic._checked(p, M, _residue(r, p, M))


def _residue(r: Fraction, p: int, M: int) -> int:
    if r.denominator % p == 0:
        raise NonUnitError(
            f"denominator {r.denominator} is divisible by p={p}; "
            "the rational has no residue mod p^M"
        )
    pm = p**M
    return r.numerator * pow(r.denominator, -1, pm) % pm


def _check_sum(degrees: Sequence[int], x0s: Sequence[int], q0: int, p: int,
               depth: int, M: int) -> None:
    for n in degrees:
        _check_ints(n=n)
    for x0 in x0s:
        _check_ints(x0=x0)
    _check_ints(q0=q0, depth=depth)
    _check_parameters(p, M)
    _check_base(q0, p)
    if min(degrees) < 0:
        raise ValueError("n must be nonnegative")
    if min(x0s) < 0:
        raise ValueError("x0 must be nonnegative")
    if depth < 1:
        raise ValueError("depth must be at least 1")


def _partial_sums(
    n: int, x0s: Sequence[int], q0: int, p: int, N_max: int, M: int
) -> Iterator[list[list[int]]]:
    """Yield the moments T_0 .. T_n mod p^M of each x0 at depths 1 .. N_max.

    At depth N, entry k of the vector of x0s[j] is S_N for degree k at
    that x0.  Each depth computes one block row and advances every x0's
    vector with it.  See the module docstring for the recursion;
    arguments are checked by the callers.
    """
    pm = p**M
    binomials = [[comb(a, k) % pm for k in range(a + 1)] for a in range(n + 1)]
    p_powers = [pow(p, i, pm) for i in range(n + 1)]
    vectors = [[pow(x0, k, pm) for k in range(n + 1)] for x0 in x0s]
    block = 1  # p^N mod p^M
    g = -q0 % pm  # (-q0)^(p^N) mod p^M
    for _ in range(N_max):
        g_next = pow(g, p, pm)
        unit = pow(1 - g, -1, pm)  # g = -1 mod p, so 1 - g = 2 mod p
        A = []
        for i, row in enumerate(binomials):
            acc = (i == 0) - g_next * p_powers[i]
            acc += g * sum(c * a for c, a in zip(row, A))
            A.append(acc * unit % pm)
        G = [a * pow(block, i, pm) % pm for i, a in enumerate(A)]
        vectors = [
            [sum(c * G[a - k] * moments[k] for k, c in enumerate(row)) % pm
             for a, row in enumerate(binomials)]
            for moments in vectors
        ]
        yield vectors
        block = block * p % pm
        g = g_next


def fermionic_partial_sum(
    n: int, x0: int, q0: int, p: int, N: int, M: int
) -> PAdic:
    """S_N = sum_{y < p^N} (-1)^y q0^y (x0+y)^n, exactly mod p^M.

    Requires n >= 0, x0 >= 0, N >= 1, odd prime p, M >= 1, and
    p | (q0 - 1).  Costs O(N n^2) residue operations.
    """
    _check_sum((n,), (x0,), q0, p, N, M)
    ((moments,),) = deque(_partial_sums(n, (x0,), q0, p, N, M), maxlen=1)
    return PAdic._checked(p, M, moments[n])


class DepthEntry(_Record):
    """One depth of a convergence run: N, S_N, and v_p(S_N - target)."""

    __slots__ = ("N", "partial_sum", "valuation")

    def to_json(self) -> dict:
        return {"N": self.N, "S": str(self.partial_sum), "val": self.valuation}


class ConvergenceReport(_Record):
    """Valuation-by-depth record of one truncated-sum convergence run."""

    __slots__ = ("p", "M", "q0", "n", "x0", "target", "entries")

    @property
    def monotone(self) -> bool:
        """Whether the valuations never decrease (information only).

        S_1 can match the target to more digits than S_2, so a correct
        run may report False; the floor v_N >= min(N, M), proven in the
        module docstring, is the guarantee.
        """
        vals = [e.valuation for e in self.entries]
        return all(a <= b for a, b in zip(vals, vals[1:]))

    def reached_at(self) -> int | None:
        """Smallest depth whose truncation error vanishes mod p^M."""
        for e in self.entries:
            if e.valuation >= self.M:
                return e.N
        return None

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "M": self.M,
            "q0": self.q0,
            "n": self.n,
            "x0": self.x0,
            "target": str(self.target),
            "rows": [e.to_json() for e in self.entries],
        }


def witt_convergence_check(
    n: int,
    x0: int,
    p: int,
    q0: int,
    M: int,
    N_max: int,
) -> ConvergenceReport:
    """Compare truncated sums against the q-Euler polynomial value.

    The target is E_n(x0, q0) mod p^M, formed from the residues of
    E_0(q0) .. E_n(q0) (see the module docstring); one run of the block
    recursion yields S_N for every depth N = 1 .. N_max.
    """
    (report,) = _convergence_reports((n,), (x0,), p, q0, M, N_max)
    return report


def _convergence_reports(
    degrees: Sequence[int], x0s: Sequence[int], p: int, q0: int, M: int,
    N_max: int,
) -> list[ConvergenceReport]:
    """``witt_convergence_check`` for each n in degrees and x0 in x0s.

    The reports come in (n, x0) order, each sequence in its given order
    with duplicates kept.  One recursion up to the largest degree gives
    every S_N, each E_l(q0) is embedded once, and the parameters are
    checked once, the degree cap before any value is computed.
    """
    _check_sum(degrees, x0s, q0, p, N_max, M)
    n_max = max(degrees)
    _check_cap(n_max)
    pm = p**M
    e = [_residue(euler_number_q(l)(q0), p, M) for l in range(n_max + 1)]
    cases = [(n, j, x0, sum(comb(n, l) * e[l] * pow(x0, n - l, pm)
                            for l in range(n + 1)) % pm)
             for n in degrees for j, x0 in enumerate(x0s)]
    rows = [[] for _ in cases]
    sums = _partial_sums(n_max, x0s, q0, p, N_max, M)
    for N, vectors in enumerate(sums, 1):
        for row, (n, j, _, target) in zip(rows, cases):
            partial_sum = vectors[j][n]
            valuation = _valuation((partial_sum - target) % pm, p, M)
            row.append(DepthEntry(N, partial_sum, valuation))
    return [
        ConvergenceReport(p, M, q0, n, x0, target, tuple(row))
        for (n, _, x0, target), row in zip(cases, rows)
    ]


def shift_identity_check_numeric(
    m: int, nshift: int, q0: int, p: int, N: int, M: int
) -> VerificationResult:
    """Truncated-sum version of the variable-shift relation, mod p^M.

    LHS: the alternating sum of q0^(y+nshift) (y+nshift)^m.  RHS:
    (-1)^nshift times the unshifted sum plus twice the alternating
    boundary sum of q0^l l^m.  Reports the p-adic valuation of the
    difference, capped at M; both sums share the truncation depth N,
    and the two sides agree only up to truncation error, so callers
    should read the valuation, not demand exact equality.
    """
    _check_ints(nshift=nshift)
    if nshift < 1:
        raise ValueError("nshift must be at least 1")
    _check_sum((m,), (nshift, 0), q0, p, N, M)
    pm = p**M
    (last,) = deque(_partial_sums(m, (nshift, 0), q0, p, N, M), maxlen=1)
    shifted, plain = (moments[m] for moments in last)
    boundary = sum((-1) ** (nshift - 1 - l) * pow(q0, l, pm) * pow(l, m, pm)
                   for l in range(nshift))
    sign = 1 if nshift % 2 == 0 else -1
    rhs = sign * plain + 2 * boundary
    # the change of variable y -> y + nshift carries a factor q0^nshift
    lhs = shifted * pow(q0 % pm, nshift, pm)
    diff = PAdic._checked(p, M, lhs - rhs)
    return VerificationResult(
        identity="eq2_shift_numeric",
        params=(m, nshift, q0, p, N, M),
        lhs=PAdic._checked(p, M, lhs),
        rhs=PAdic._checked(p, M, rhs),
        equal=diff.is_zero,
        difference=diff,
        valuation=diff.valuation(),
    )
