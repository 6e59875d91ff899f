"""Finite-dimensional stand-ins for (2,D)-smooth Banach spaces.

A space is (2,D)-smooth when

    ||x + y||^2 + ||x - y||^2  <=  2 ||x||^2 + 2 D^2 ||y||^2   for all x, y.

Hilbert spaces satisfy this with D = 1 (parallelogram law, with equality);
l^p with p >= 2 satisfies it with D = sqrt(p - 1). Every bound in this
package depends on the space only through D and norm values, so
finite-dimensional coordinate spaces are fully representative.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, UnsupportedExponentError, checked_count, checked_real

# integer exponents above 2 whose powers are multiplied out; above 12 factors
# the multiplications cost more than one pow pass
_MUL_POWERS = range(3, 13)


def _row_sums(a: np.ndarray):
    """np.add.reduce(a, axis=-1), bit for bit. numpy adds fewer than 8 terms
    in order and more pairwise; below 8 this adds the columns in order,
    without the reduction's overhead per row (5-20x its arithmetic)."""
    d = a.shape[-1]
    if d >= 8:
        return np.add.reduce(a, axis=-1)
    sums = a[..., 0] + a[..., 1]  # a numpy scalar for one row, as the reduction gives
    for i in range(2, d):
        sums += a[..., i]
    return sums


@dataclass(frozen=True)
class SmoothSpace:
    """l^p on R^dimension, p >= 2; p = 2 is the euclidean space."""
    dimension: int
    p: float

    def __post_init__(self):
        object.__setattr__(self, "dimension",
                           checked_count(self.dimension, "dimension", InvalidDimensionError))
        object.__setattr__(self, "p", float(checked_real(self.p, "p", least=2,
                                                         error=UnsupportedExponentError)))

    @property
    def smoothness_D(self) -> float:
        """D = sqrt(p - 1), which is 1 for the euclidean norm."""
        return math.sqrt(self.p - 1.0)

    def _checked_D(self, D):
        """D, if finite and >= smoothness_D: the theorem gives no bound below it."""
        return checked_real(D, "D", least=self.smoothness_D,
                            lo_text=f"the smoothness constant {self.smoothness_D:.6g} of the space")

    def norm(self, v) -> float:
        """Norm of a single coordinate vector, as ``norms`` gives it for the
        vector as a row of an array: a lone row's power would go through
        the C library's pow, which may differ in the last bit."""
        return float(self._norms(np.asarray(v, dtype=float)[None])[0])

    def norms(self, rows) -> np.ndarray:
        """Norms along the last axis of an (..., dimension) array. In
        dimension 1 the norm is |x| for every p, taken as such. Otherwise it
        is sqrt(sum of x^2) at p = 2 (the bits of pow and ** 0.5); for p in
        _MUL_POWERS |x|^p is a product of p factors |x|, a few ulp off pow;
        other p call pow in place.
        The sums are those of np.add.reduce, bit for bit: see _row_sums."""
        return self._norms(np.asarray(rows, dtype=float))

    @property
    def _norm_temporaries(self) -> int:
        """How many arrays of rows' size ``_norms`` fills: none in dimension
        1, else x^2 or |x|, and |x|^p for p in _MUL_POWERS."""
        if self.dimension == 1:
            return 0
        return 2 if self.p in _MUL_POWERS else 1

    def _norms(self, rows: np.ndarray, scratch=()) -> np.ndarray:
        """``norms`` of a float array, with its temporaries written into the
        arrays of ``scratch`` (float arrays of rows' shape that the caller
        owns, at most _norm_temporaries of them) and fresh arrays for the
        rest. The same ufuncs in the same order either way.

        In dimension 1 this is a fresh |x|. The sqrt(x^2) of p = 2 has the
        same bits for 2^-511 <= |x| < 2^512, where x^2 neither underflows
        nor overflows; the l^p (|x|^p)^(1/p) was a few ulp off for p != 2.
        In higher dimensions a row whose sum of powers overflows or
        underflows, a norm of inf with every |x_i| finite or of 0 with one
        nonzero, is redone as m ||x / m||, m its largest |x_i|; every other
        row keeps the bits of the plain sum."""
        if self.dimension == 1:
            return np.abs(rows[..., 0])
        with np.errstate(over="ignore"):  # such rows are redone below
            norms = self._power_sum_norms(rows, scratch)
        flagged = (norms == 0.0) | (norms == math.inf)
        if not flagged.any():
            return norms
        fixed, x = np.array(norms), rows[flagged]  # 0-d for a single row
        top = np.abs(x).max(axis=-1)
        redo = (0.0 < top) & (top < math.inf)  # else all zero, or an |x_i| is inf
        values = fixed[flagged]
        with np.errstate(over="ignore"):  # a norm past the float range is inf
            values[redo] = self._norms(x[redo] / top[redo, None]) * top[redo]
        fixed[flagged] = values
        return fixed[()]

    def _power_sum_norms(self, rows: np.ndarray, scratch) -> np.ndarray:
        first, second = (*scratch, None, None)[:2]
        if self.p == 2:
            sums = _row_sums(np.multiply(rows, rows, out=first))
            return np.sqrt(sums, out=sums if sums.ndim else None)  # a scalar for one row
        a = np.abs(rows, out=first)
        if self.p in _MUL_POWERS:
            power = np.multiply(a, a, out=second)
            for _ in range(int(self.p) - 2):
                power *= a
        else:
            power = np.power(a, self.p, out=a)
        del a  # no more temporaries of rows' size than with pow
        sums = _row_sums(power)
        sums **= 1.0 / self.p  # as sums ** (1 / p)
        return sums

    def _unit(self, rows: np.ndarray, radius=None, *scratch) -> np.ndarray:
        """Sets the rows of a float array to their directions x / ||x|| in
        place, times ``radius`` unless it is None, and returns it; a radius
        broadcasts against the rows as a (..., 1) array or a scalar, and the
        arrays after it, ``scratch``, are passed to the norms. The unit
        sphere of dimension 1 is {-1, 1}: a row becomes its sign, with +-0
        mapped to +-1, where x / |x| would be nan, and the same bits
        elsewhere. There a radius must be >= 0: copysign(r, x) is one ufunc
        and has the bits of copysign(1, x) r."""
        if self.dimension == 1:
            return np.copysign(1.0 if radius is None else radius, rows, out=rows)
        rows /= self._norms(rows, scratch)[..., None]
        if radius is not None:
            rows *= radius
        return rows


def make_euclidean(d: int) -> SmoothSpace:
    """Euclidean R^d, smooth with D = 1."""
    return SmoothSpace(dimension=d, p=2.0)


def make_lp(d: int, p: float) -> SmoothSpace:
    """l^p on R^d for p >= 2, smooth with D = sqrt(p - 1); make_lp(d, 2) is
    make_euclidean(d)."""
    return SmoothSpace(dimension=d, p=p)


@dataclass(frozen=True)
class CertificateReport:
    smoothness_D: float
    num_pairs: int
    max_violation: float  # max over pairs of lhs - rhs (positive = violated)
    max_abs_gap: float    # max over pairs of |lhs - rhs| (equality diagnostics)
    scale: float          # max rhs over pairs, sets the pass tolerance
    passed: bool


def _corner_pairs(d: int):
    """Deterministic pairs covering degenerate equality cases."""
    z = np.zeros(d)
    e = np.eye(d)
    ones = np.ones(d)
    pairs = [(z, z), (z, e[0]), (e[0], z), (e[0], e[0]), (ones, ones),
             (ones, -ones), (z, ones)]
    if d >= 2:
        pairs += [(e[0], e[1]), (e[0] + e[1], e[0] - e[1]),
                  (2 * e[0] + e[1], e[0] - 2 * e[1])]
    return pairs


def smoothness_certificate(space: SmoothSpace, num_pairs: int, seed: int,
                           check_D: float | None = None) -> CertificateReport:
    """Sample pairs and test the two-point smoothness inequality.

    Checks ||x+y||^2 + ||x-y||^2 <= 2||x||^2 + 2 D^2 ||y||^2 on ``num_pairs``
    standard-normal pairs plus a fixed corner-case list. ``check_D`` (in
    [0, 1e150)) overrides the space's certified constant, which is how an
    undersized D is exposed as a positive violation. Passes iff
    max_violation <= 1e-9 * scale.
    """
    num_pairs = checked_count(num_pairs, "num_pairs")
    D = space.smoothness_D if check_D is None else \
        float(checked_real(check_D, "check_D", least=0, below=1e150))  # 2 D^2 stays finite
    d = space.dimension
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((num_pairs, d))
    ys = rng.standard_normal((num_pairs, d))
    corners = _corner_pairs(d)
    xs = np.vstack([xs] + [c[0][None, :] for c in corners])
    ys = np.vstack([ys] + [c[1][None, :] for c in corners])

    lhs = space.norms(xs + ys) ** 2 + space.norms(xs - ys) ** 2
    rhs = 2.0 * space.norms(xs) ** 2 + 2.0 * D * D * space.norms(ys) ** 2
    gap = lhs - rhs
    scale = float(rhs.max()) if rhs.size else 1.0
    max_violation = float(gap.max())
    return CertificateReport(
        smoothness_D=D,
        num_pairs=int(xs.shape[0]),
        max_violation=max_violation,
        max_abs_gap=float(np.abs(gap).max()),
        scale=scale,
        passed=bool(max_violation <= 1e-9 * scale),
    )
