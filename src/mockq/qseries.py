"""Truncated Laurent series on the exponent grid (1/24)*Z with Cyc24 coefficients.

Exponents are stored as integers in units of 1/24 ("grid units"); the honest
q-exponent of grid index e is e/24.  A series knows its lowest materialized
exponent `low` and an exclusive precision bound `cap`: coefficients at every
grid index in [low, cap) are exact, everything at or beyond `cap` is unknown.

comps[k] = (den, nums) holds the coefficients of zeta^k as integer
numerators over one positive denominator, gcd-normalised, as a Cyc24 holds
its own; most series live in component 0 alone.  The operations work on
these arrays directly:

- `_support` finds an array's lattice o + g*Z in C-level steps; `_conv`,
  `div_binomial` and `_inv_recurrence` read it there.  `_norm_comp`,
  `__init__` and `__neg__` also leave the 1/24 grid to `compress` and `map`.
- `_conv` factors both supports onto their common lattice o + g*Z, then
  convolves by schoolbook or by Kronecker substitution (one big-integer
  product); series in q, q^2 or q^3 pack 24, 48 or 72 times fewer slots.
- `eq_to` compares each component's window as an integer array and builds
  Cyc24 values only for the witness at the first differing grid point.
- `scale`, `mul_binomial` and `binomial_chain` read a constant's numerators
  as integer multipliers; a part z^j only permutes components and flips
  signs through `_REDUCE`.
- `from_terms` groups the exponents by coefficient value, so the cyclic
  tails of `lerch.lerch_expand` read each root of unity once.
- `inv` inverts lead * A, for A one rational component with integer
  coefficients and at most 150 nonzero slots, by the recurrence on A;
  Newton iteration takes the rest.

Storage stays on the full 1/24 grid, but the producers whose output sits on
a coarser lattice g*Z run on every g-th slot and spread the result back
once (`_spread`): `inv`, `compose_power(k)` for integer k (`_stretched`),
`dissect`, `twist_minus_q`, and `etatheta.pochhammer_inf`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress, count
from math import gcd, lcm, ceil
from operator import add, neg, sub

try:
    from gmpy2 import mpz as _mpz
except ImportError:  # gmpy2 is optional; without it the kernel uses Python int
    _mpz = int

from .cyclotomic import Cyc24, ONE as CONE, ZERO as CZERO, _REDUCE, _ratstr
from .errors import GridError, NonInvertibleError, PrecisionError

__all__ = ["QSeries"]

_SPARSE_CUTOFF = 48
_DIVISORS_24 = (24, 12, 8, 6, 4, 3, 2, 1)


# ---------------------------------------------------------------------------
# integer convolution


def _pack(vals, nbytes):
    """The signed integer sum of vals[i] * 2^(8*nbytes*i): the packed
    positive part minus the packed negative part."""
    pos, neg = bytearray(len(vals) * nbytes), bytearray(len(vals) * nbytes)
    for i, x in enumerate(vals):
        if x:
            buf = pos if x > 0 else neg
            buf[i * nbytes : (i + 1) * nbytes] = abs(x).to_bytes(nbytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(big, nbytes, n):
    big = int(big)
    raw = big.to_bytes(max(n * nbytes, (big.bit_length() + 7) // 8) + nbytes, "little")
    return [
        int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") for i in range(n)
    ]


def _kron_conv(xs, ys, out_len):
    """One signed Kronecker product.  Every output digit c of the product of
    the packed arrays has |c| <= bound < B/2 with B = 2^(8*nbytes), so adding
    B/2 to each digit puts them all in [0, B): one unpack reads them, and
    B/2 comes off again."""
    bound = max(map(abs, xs)) * max(map(abs, ys)) * min(len(xs), len(ys))
    nbytes = (bound.bit_length() + 1) // 8 + 1
    half = 1 << (8 * nbytes - 1)
    digits = max(len(xs) + len(ys), out_len)
    offset = int.from_bytes(half.to_bytes(nbytes, "little") * digits, "little")
    prod = _mpz(_pack(xs, nbytes)) * _mpz(_pack(ys, nbytes)) + offset
    return [d - half for d in _unpack(prod, nbytes, out_len)]


def _conv_lattice(xs, ys, out_len):
    """First out_len coefficients of the Cauchy product: schoolbook over the
    nonzero entries when one side is sparse, Kronecker substitution if not."""
    xs = xs[:out_len]
    ys = ys[:out_len]
    nzx = list(compress(range(len(xs)), xs))
    nzy = list(compress(range(len(ys)), ys))
    if min(len(nzx), len(nzy)) <= _SPARSE_CUTOFF:
        if len(nzy) < len(nzx):
            xs, ys = ys, xs
            nzx, nzy = nzy, nzx
        out = [0] * out_len
        for i in nzx:
            xi = xs[i]
            hi = out_len - i
            for j in nzy:
                if j >= hi:
                    break
                out[i + j] += xi * ys[j]
        return out
    return _kron_conv(xs, ys, out_len)


def _support(nums, n):
    """(o, g): the first nonzero index of nums[:n] and the gcd of the
    offsets of its nonzeros from o (0 for one nonzero); None if all zero.
    The gcd is taken over the first slice nums[o::d], d | 24, that holds
    every nonzero."""
    if len(nums) > n:
        nums = nums[:n]
    nz = len(nums) - nums.count(0)
    if not nz:
        return None
    o = next(compress(count(), nums))
    for d in _DIVISORS_24:
        sl = nums[o::d]
        if len(sl) - sl.count(0) == nz:
            return o, d * gcd(*compress(range(len(sl)), sl))


def _conv(xs, ys, out_len):
    """First out_len coefficients of the Cauchy product of integer arrays.

    The supports are factored onto their common lattice first: with
    (ox, gx), (oy, gy) from `_support` and g = gcd(gx, gy), only xs[ox::g]
    and ys[oy::g] are convolved, and the result is spread back onto
    ox + oy + g*Z.  Products of series in q^(1/24) that live on q^1, q^2 or
    q^3 thus pack 24, 48 or 72 times fewer slots.
    """
    out = [0] * max(out_len, 0)
    sx, sy = _support(xs, out_len), _support(ys, out_len)
    if sx is None or sy is None:
        return out
    (ox, gx), (oy, gy) = sx, sy
    base = ox + oy
    if base >= out_len:
        return out
    g = gcd(gx, gy) or out_len
    m = (out_len - base - 1) // g + 1
    out[base::g] = _conv_lattice(xs[ox:out_len:g], ys[oy:out_len:g], m)
    return out


# ---------------------------------------------------------------------------
# component accumulator


def _norm_comp(den, nums):
    """Reduce (den, nums) by the common gcd; None if identically zero."""
    g = 0
    for v in compress(nums, nums):
        g = gcd(g, v)
        if g == 1:
            break
    if g == 0:
        return None
    g = gcd(g, den)
    if g > 1:
        den //= g
        nums = list(map(g.__rfloordiv__, nums))
    return (den, nums)


def _acc_add(acc, k, den, nums, mult):
    """acc[k] += mult * nums / den, where mult is a nonzero integer."""
    if k not in acc:
        acc[k] = [den, nums if mult == 1 else list(map(mult.__mul__, nums))]
        return
    d0, n0 = acc[k]
    if d0 != den:
        d = lcm(d0, den)
        if d != d0:
            n0 = list(map((d // d0).__mul__, n0))
        mult *= d // den
        d0 = d
    if mult == 1:
        acc[k] = [d0, list(map(add, n0, nums))]
    elif mult == -1:
        acc[k] = [d0, list(map(sub, n0, nums))]
    else:
        acc[k] = [d0, list(map(add, n0, map(mult.__mul__, nums)))]


def _place(nums, off, n):
    """nums moved off >= 0 slots right inside a zero window of length n."""
    if off >= n:
        return [0] * n
    out = [0] * off + nums[: n - off]
    if len(out) < n:
        out += [0] * (n - len(out))
    return out


def _parts(c):
    """(j, numerator, denominator) of each nonzero coefficient of the Cyc24
    c along the power basis, all over c's one denominator."""
    return [(j, x, c.den) for j, x in enumerate(c.num) if x]


def _cyc(parts):
    """The Cyc24 sum of v/d * z^k over the (k, v, d) in parts."""
    den = lcm(*(d for _, _, d in parts))
    nums = [0] * 8
    for k, v, d in parts:
        nums[k] = v * (den // d)
    return Cyc24(nums, den)


def _spread(nums, g, n):
    """nums on every g-th slot of a zero list of length n; len(nums) must
    be ceil(n/g)."""
    out = [0] * n
    out[::g] = nums
    return out


def _first_diff(xs, ys):
    """Index of the first entry where two equal-length lists differ, or None."""
    if xs == ys:
        return None
    return next(i for i, (x, y) in enumerate(zip(xs, ys)) if x != y)


def _unit_inverse(nz, length):
    """The first `length` coefficients of 1/A for an integer series A with
    A_0 = 1 and the other nonzero coefficients (i, A_i), i ascending:
    B_0 = 1, B_m = -sum A_i B_(m-i)."""
    out = [0] * length
    out[0] = 1
    for m in range(1, length):
        s = 0
        for i, v in nz:
            if i > m:
                break
            s += v * out[m - i]
        out[m] = -s
    return out


class QSeries:
    __slots__ = ("low", "cap", "comps")

    def __init__(self, low, cap, comps, _trusted=False):
        """comps: dict k -> (den, nums) with len(nums) == cap - low; the
        nums lists are taken over, not copied."""
        if low > cap:
            raise ValueError("low > cap")
        if not _trusted:
            comps = {
                k: c
                for k, c in ((k, _norm_comp(d, n)) for k, (d, n) in comps.items())
                if c is not None
            }
        self.comps = comps
        # trim leading zeros so `low` points at an actually-nonzero coefficient
        if comps:
            first = min(next(compress(count(), nums)) for _, nums in comps.values())
            if first:
                low += first
                self.comps = {k: (d, n[first:]) for k, (d, n) in comps.items()}
        else:
            low = cap
        self.low = low
        self.cap = cap

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, cap):
        return cls(cap, cap, {}, _trusted=True)

    @classmethod
    def one(cls, cap):
        return cls.monomial(1, 0, cap)

    @classmethod
    def monomial(cls, const, e, cap):
        return cls.from_terms([(e, const)], cap)

    @classmethod
    def from_terms(cls, terms, cap):
        """terms: iterable of (grid_exponent, coefficient), grouped by
        coefficient value, so a tail that repeats a few roots of unity reads
        each one's numerators once."""
        groups = {}
        for e, c in terms:
            if e < cap:
                groups.setdefault(c, []).append(e)
        cs = [(c if isinstance(c, Cyc24) else Cyc24(c), es) for c, es in groups.items()]
        if not cs:
            return cls.zero(cap)
        lo = min(min(es) for _, es in cs)
        den = lcm(*(c.den for c, _ in cs))
        by_comp = {}
        for c, es in cs:
            m = den // c.den
            for k, x in enumerate(c.num):
                if x:
                    nums = by_comp.get(k) or by_comp.setdefault(k, [0] * (cap - lo))
                    v = x * m
                    for e in es:
                        nums[e - lo] += v
        return cls(lo, cap, {k: (den, nums) for k, nums in by_comp.items()})

    @classmethod
    def binomial_chain(cls, factors, cap):
        """prod (1 - c*q^(p/24)) over each (c, ps) in factors and p in ps,
        p >= 0, exact below cap > 0: one in-place pass per factor on integer
        arrays over one denominator, normalized once.  A pass reads copies
        of the old arrays, as a part z^j of c moves values between
        components."""
        den, comps = 1, {0: [1] + [0] * (cap - 1)}
        for c, ps in factors:
            parts, m = _parts(c), c.den
            for p in ps:
                if p >= cap:
                    continue
                olds = [(i, nums[: cap - p]) for i, nums in comps.items()]
                if m != 1:
                    den *= m
                    for nums in comps.values():
                        nums[:] = map(m.__mul__, nums)
                for j, num, _ in parts:
                    for i, old in olds:
                        for k, s in _REDUCE[i + j]:
                            tgt = comps.get(k) or comps.setdefault(k, [0] * cap)
                            mult = -s * num
                            src = old if mult in (1, -1) else map(mult.__mul__, old)
                            tgt[p:] = map(sub if mult == -1 else add, tgt[p:], src)
        return cls(0, cap, {k: (den, nums) for k, nums in comps.items()})

    # -- inspection ------------------------------------------------------

    def is_zero(self):
        return not self.comps

    def coeff(self, e) -> Cyc24:
        if e >= self.cap:
            raise PrecisionError(
                "coefficient at %s/24 requested, precision stops at %s/24"
                % (e, self.cap)
            )
        if e < self.low or not self.comps:
            return CZERO
        i = e - self.low
        return _cyc([(k, nums[i], d) for k, (d, nums) in self.comps.items() if nums[i]])

    def nonzero_items(self):
        for e, parts in self._rows():
            yield e, _cyc(parts)

    def _rows(self):
        """Sorted (grid exponent, [(k, numerator, denominator)]) for every
        nonzero coefficient."""
        out = {}
        for k, (d, nums) in self.comps.items():
            for i in compress(range(len(nums)), nums):
                out.setdefault(self.low + i, []).append((k, nums[i], d))
        return sorted(out.items())

    def eq_to(self, other, order):
        """Coefficient-exact comparison through q^order (order in q-units).

        Returns (True, None) or (False, (grid_e, self_coeff, other_coeff)).
        Each component's window [low, 24*order] is compared as an integer
        array; where the two denominators differ both sides are
        cross-multiplied, because a component is gcd-normalised over its
        whole array, not over the window.  Cyc24 values are built only for
        the witness at the first differing grid point.
        """
        top = int(Fraction(order) * 24)
        if self.cap <= top or other.cap <= top:
            raise PrecisionError(
                "comparison to order %s needs caps > %d (have %d, %d)"
                % (order, top, self.cap, other.cap)
            )
        lo = min(self.low, other.low)
        n = top + 1 - lo
        first = n
        for k in self.comps.keys() | other.comps.keys():
            da, xs = self._window(k, lo, n)
            db, ys = other._window(k, lo, n)
            if da and db and da != db:
                g = gcd(da, db)
                xs = list(map((db // g).__mul__, xs))
                ys = list(map((da // g).__mul__, ys))
            i = _first_diff(xs, ys)
            if i is not None and i < first:
                first = i
        if first >= n:
            return True, None
        e = lo + first
        return False, (e, self.coeff(e), other.coeff(e))

    def _window(self, k, lo, n):
        """(den, numerators at grid lo .. lo+n-1) of component k, zero
        padded; den is 0 where the component is absent."""
        comp = self.comps.get(k)
        if comp is None:
            return 0, [0] * max(n, 0)
        d, nums = comp
        return d, _place(nums, self.low - lo, max(n, 0))

    # -- ring operations -------------------------------------------------

    def _combine(self, other, sign):
        """self + sign*other for sign = +-1."""
        cap = min(self.cap, other.cap)
        low = min(self.low, other.low, cap)
        n = cap - low
        acc = {}
        for src, mult in ((self, 1), (other, sign)):
            off = src.low - low
            for k, (d, nums) in src.comps.items():
                _acc_add(acc, k, d, _place(nums, off, n), mult)
        return QSeries(low, cap, {k: (dv[0], dv[1]) for k, dv in acc.items()})

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._combine(other, 1)

    def __neg__(self):
        return QSeries(
            self.low,
            self.cap,
            {k: (d, list(map(neg, nums))) for k, (d, nums) in self.comps.items()},
            _trusted=True,
        )

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyc24)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            cap = min(self.cap + other.low, other.cap + self.low)
            return QSeries.zero(cap)
        low = self.low + other.low
        cap = min(self.cap + other.low, other.cap + self.low)
        out_len = cap - low
        acc = {}
        for i, (di, ni) in self.comps.items():
            for j, (dj, nj) in other.comps.items():
                conv = _conv(ni, nj, out_len)
                if not any(conv):
                    continue
                den = di * dj
                for k, s in _REDUCE[i + j]:
                    _acc_add(acc, k, den, conv, s)
        return QSeries(low, cap, {k: (dv[0], dv[1]) for k, dv in acc.items()})

    __rmul__ = __mul__

    def scale(self, const):
        c = const if isinstance(const, Cyc24) else Cyc24(const)
        if not c:
            return QSeries.zero(self.cap)
        n = self.cap - self.low
        return QSeries(self.low, self.cap, self._scaled_comps(_parts(c), 0, n, {}))

    def _scaled_comps(self, parts, off, n, acc):
        """Add c * self, moved off slots right in a window of n, into acc,
        where parts = _parts(c).

        Each rational part of c is one integer multiplier and one
        denominator.  A 24th root of unity is one or two parts +-z^j, each
        of which only permutes components and flips signs through _REDUCE."""
        for j, num, den in parts:
            for i, (d, nums) in self.comps.items():
                placed = _place(nums, off, n)
                for k, s in _REDUCE[i + j]:
                    _acc_add(acc, k, d * den, placed, s * num)
        return {k: (dv[0], dv[1]) for k, dv in acc.items()}

    def shift(self, e):
        """Multiply by q^(e/24)."""
        return QSeries(
            self.low + e,
            self.cap + e,
            dict(self.comps),
            _trusted=True,
        )

    def truncate(self, new_cap):
        if new_cap >= self.cap:
            return self
        if new_cap <= self.low:
            return QSeries.zero(new_cap)
        n = new_cap - self.low
        return QSeries(
            self.low, new_cap, {k: (d, nums[:n]) for k, (d, nums) in self.comps.items()}
        )

    def _as_poly(self, new_cap):
        """Reinterpret as an exact polynomial with a wider cap (internal)."""
        if new_cap <= self.cap:
            return self.truncate(new_cap)
        pad = new_cap - self.cap
        return QSeries(
            self.low,
            new_cap,
            {k: (d, nums + [0] * pad) for k, (d, nums) in self.comps.items()},
            _trusted=True,
        )

    def mul_binomial(self, const, p):
        """Multiply by (1 - const*q^(p/24)), p != 0."""
        c = const if isinstance(const, Cyc24) else Cyc24(const)
        if not c:
            return self
        cap = min(self.cap, self.cap + p)
        low = min(self.low, self.low + p, cap)
        n = cap - low
        acc = {}
        for k, (d, nums) in self.comps.items():
            _acc_add(acc, k, d, _place(nums, self.low - low, n), 1)
        parts = [(j, -num, den) for j, num, den in _parts(c)]
        return QSeries(low, cap, self._scaled_comps(parts, self.low + p - low, n, acc))

    def div_binomial(self, const, p):
        """Divide by (1 - const*q^(p/24)) with p > 0: a recurrence on the
        integer numerators for an integer const, else a product with the
        geometric series.  The recurrence out[i] += const*out[i-p] never mixes
        residue classes mod p, so with the support on o + g*Z it runs only on
        the classes r = o mod gcd(g, p), each as one strided slice."""
        if p <= 0:
            raise ValueError("div_binomial needs p > 0")
        c = const if isinstance(const, Cyc24) else Cyc24(const)
        if c.den == 1 and c.is_rational():
            rn = c.num[0]
            acc = {}
            n = self.cap - self.low
            for k, (d, nums) in self.comps.items():
                out = list(nums)
                o, g = _support(nums, n)
                h = gcd(g, p)
                for r in range(o % h, p, h):
                    out[r::p] = accumulate(out[r::p], lambda prev, v: v + rn * prev)
                acc[k] = (d, out)
            return QSeries(self.low, self.cap, acc)
        # any other ratio: multiply by the geometric series in const*q^p
        geo_len = self.cap - self.low
        terms = []
        e = 0
        k = 0
        while e < geo_len:
            terms.append((e, c**k))
            e += p
            k += 1
        return self * QSeries.from_terms(terms, geo_len)

    def inv(self):
        """Multiplicative inverse; result low = -self.low.

        With a = self moved to low 0 and A = a/lead: where A is one rational
        component with integer coefficients and at most 150 nonzero slots,
        B = 1/A follows from B_m = -sum_(i>0) A_i B_(m-i) on one integer
        array over the lattice g*Z of A's support, and 1/self = B/lead.
        Newton iteration takes every other series.
        """
        if self.is_zero() or self.low >= self.cap:
            raise NonInvertibleError("cannot invert a series that is zero to its cap")
        a = self.shift(-self.low)
        lead = a.coeff(0)
        if not lead:
            raise NonInvertibleError("leading coefficient is zero")
        b = a._inv_recurrence(lead)
        if b is None:
            # Newton iteration: b <- b + b*(1 - a*b), doubling precision
            b = QSeries.monomial(lead.inverse(), 0, 1)
            prec = 1
            while prec < a.cap:
                prec = min(2 * prec, a.cap)
                at = a.truncate(prec)
                bp = b._as_poly(prec)
                err = QSeries.one(prec) - at * bp
                b = (bp + bp * err).truncate(prec)
        return b.shift(-self.low)

    def _inv_recurrence(self, lead):
        """1/self for self at low 0 with the given lead, or None where A =
        self/lead has several components or a fractional coefficient, or the
        support has more than 150 nonzero slots."""
        n = self.cap
        if set(self.comps) == {0}:
            d, nums = self.comps[0]
            if n - nums.count(0) > 150:
                return None
            # self = (s0/d) * A, so 1/self = (d/s0) * B on A's lattice g*Z
            g = _support(nums, n)[1] or n
            xs = nums[::g]
            support = list(compress(range(len(xs)), xs))
            s0 = xs[0]
            if s0 not in (1, -1) and any(xs[i] % s0 for i in support):
                return None
            nz = [(i, xs[i] // s0) for i in support[1:]]
            mult = d if s0 > 0 else -d
            out = [mult * v for v in _unit_inverse(nz, len(xs))]
            return QSeries(0, n, {0: (abs(s0), _spread(out, g, n))})
        # a lead outside Q: A = self/lead must be one rational component
        r = lead.inverse()
        A = self.scale(r)
        if set(A.comps) != {0}:
            return None
        b = A._inv_recurrence(CONE)
        return None if b is None else b.scale(r)

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        res = QSeries.one(self.cap)
        base = self
        kk = k
        while kk:
            if kk & 1:
                res = res * base
            kk >>= 1
            if kk:
                base = base * base
        return res

    # -- grid maps -------------------------------------------------------

    def compose_power(self, k):
        """Substitute q -> q^k for positive rational k on the grid."""
        k = Fraction(k)
        if k <= 0:
            raise GridError("compose_power needs k > 0")
        if k.denominator == 1:
            return self._stretched(int(k))
        # k = a/b keeps exponents b*t, slots r::b, and moves them to a*t
        a, b = k.numerator, k.denominator
        new_low = ceil(self.low * k)
        new_cap = ceil(self.cap * k)
        r = -self.low % b
        start = a * ((self.low + r) // b) - new_low
        comps = {}
        for comp, (d, nums) in self.comps.items():
            sl = nums[r::b]
            if len(sl) - sl.count(0) != len(nums) - nums.count(0):
                i = next(i for i in compress(range(len(nums)), nums) if (self.low + i) % b)
                raise GridError(
                    "exponent %s/24 leaves the grid under q -> q^%s" % (self.low + i, k)
                )
            out = [0] * (new_cap - new_low)
            out[start::a] = sl
            comps[comp] = (d, out)
        return QSeries(new_low, new_cap, comps)

    def _stretched(self, g):
        """q -> q^g for a positive integer g: every grid exponent times g,
        one slice assignment per component."""
        return QSeries(
            self.low * g,
            self.cap * g,
            {k: (d, _spread(nums, g, g * len(nums))) for k, (d, nums) in self.comps.items()},
            _trusted=True,
        )

    def dissect(self, m, j):
        """Extract S_j with S_j(q^m)*q^j = (part of self supported on exponents
        congruent to j mod m); requires integer exponents.

        The exponents 24*(j + m*t') are one slice of stride 24*m of each
        component, spread back onto a stride of 24."""
        if not (0 <= j < m):
            raise ValueError("residue out of range")
        self._require_integer_exponents("dissect")
        T = (self.cap - 1) // 24  # largest fully-known integer exponent
        tp_max = (T - j) // m
        new_cap = 24 * (tp_max + 1)
        tp0 = -((j - self.low // 24) // m)  # least t' with j + m*t' >= low/24
        if not self.comps or tp0 > tp_max:
            return QSeries.zero(new_cap)
        start = 24 * (j + m * tp0) - self.low
        n = new_cap - 24 * tp0
        return QSeries(
            24 * tp0,
            new_cap,
            {k: (d, _spread(nums[start :: 24 * m], 24, n)) for k, (d, nums) in self.comps.items()},
        )

    def twist_minus_q(self):
        """Substitute q -> -q (integer exponents only)."""
        self._require_integer_exponents("q -> -q twist")
        # whole powers q^t sit at slots r0 + 24*i; the odd t are every 48th
        r0 = -self.low % 24
        start = r0 + 24 * ((self.low + r0) // 24 % 2 == 0)
        comps = {}
        for k, (d, nums) in self.comps.items():
            out = list(nums)
            out[start::48] = [-v for v in nums[start::48]]
            comps[k] = (d, out)
        return QSeries(self.low, self.cap, comps, _trusted=True)

    def _require_integer_exponents(self, what):
        r0 = -self.low % 24  # the slot of q^t for whole t, mod 24
        for _, nums in self.comps.values():
            bad = [s for s in range(24) if s != r0 and any(nums[s::24])]
            if bad:
                i = min(next(compress(range(s, len(nums), 24), nums[s::24])) for s in bad)
                raise GridError(
                    "%s needs integer exponents, found %d/24" % (what, self.low + i)
                )

    # -- output ----------------------------------------------------------

    def dump(self) -> str:
        """One nonzero coefficient per line: "e/24<TAB>c0 c1 ... c7"."""
        lines = []
        for e, parts in self._rows():
            cs = ["0"] * 8
            for k, v, d in parts:
                cs[k] = _ratstr(v, d)
            lines.append("%d/24\t%s" % (e, " ".join(cs)))
        return "\n".join(lines)

    def __repr__(self):
        head = []
        for e, c in self.nonzero_items():
            head.append("q^(%d/24)*(%s)" % (e, c.to_text()))
            if len(head) >= 4:
                head.append("...")
                break
        return "QSeries[low=%d cap=%d: %s]" % (self.low, self.cap, " + ".join(head) or "0")
