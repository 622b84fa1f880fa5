"""Two-mode Gaussian state toolkit: steering, asymmetry, Renyi-2 entanglement.

Conventions
-----------
Quadratures are q = (b^dag + b)/sqrt(2) and p = i(b^dag - b)/sqrt(2), so
[q, p] = i and the vacuum variance is 1/2.  Covariance matrices are real 4x4
arrays in the ordered basis (q1, p1, q2, p2).  Mode A is mode 1 (top-left 2x2
block V1), mode B is mode 2 (bottom-right block V2), and the off-diagonal 2x2
block V3 carries the cross correlations.  A state is physical (bona fide) when
both symplectic eigenvalues of its covariance matrix are >= 1/2.

The steering measure in this convention is

    G(A->B) = max[0, (1/2) ln( det V1 / (4 det V) )]

(Kogias, Lee, Ragy and Adesso, PRL 114, 060403 (2015)), which for
block-diagonal standard-form states reduces to
max[0, -ln 2(v33 - v13^2/v11)].  The Renyi-2 entanglement E2 (Adesso,
Girolami and Serafini, PRL 109, 190502 (2012)) has a closed two-branch
expression valid for the squeezed-thermal-state (STS) class, i.e.
standard-form matrices with v11 = v22, v33 = v44 and v13 = -v24.

An STS is fixed by the three numbers (v11, v33, v13), and every measure is
a closed-form function of them, written once below for either a single
state (Python floats and the ``math`` module, ``FLOAT_MATH``) or a whole
column of states (numpy arrays).  ``StsColumns`` holds one state (floats)
or many (columns).  A ``TwoModeCovariance`` is measured through its
determinants, which on an exact STS give the same bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import InvalidInput, NonPhysicalState, UnsupportedForm

# Relative tolerance used to decide whether a matrix is in STS standard form.
STS_FORM_RTOL = 1e-10

# Entries that vanish in the standard form: the q and p sectors never mix.
_OFF_PATTERN = ((0, 1), (0, 3), (1, 2), (2, 3))

#: The subset of numpy's namespace the closed-form formulas use, for Python
#: floats: a single state costs a few math calls instead of a numpy call per
#: operation.  numpy's expm1 and log differ from the C library's by an ulp on
#: a small share of inputs, so a column entry can differ from the same state
#: evaluated alone in the last bits.
FLOAT_MATH = SimpleNamespace(
    expm1=math.expm1, log=math.log, sqrt=math.sqrt, maximum=max, minimum=min, any=bool,
)


class SteeringClass(enum.Enum):
    """Directional classification of a two-mode state's Gaussian steerability."""

    NO_WAY = "no_way"
    ONE_WAY_A_TO_B = "one_way_a_to_b"
    ONE_WAY_B_TO_A = "one_way_b_to_a"
    TWO_WAY = "two_way"


#: Steering classes by code (G(A->B) > epsilon) + 2 (G(B->A) > epsilon).
_CLASS_BY_CODE = np.array(
    [SteeringClass.NO_WAY, SteeringClass.ONE_WAY_A_TO_B,
     SteeringClass.ONE_WAY_B_TO_A, SteeringClass.TWO_WAY],
    dtype=object,
)


def _contents_equal(a, b):
    """``__eq__`` for dataclasses with array fields: np.array_equal per field,
    so arrays compare by content instead of raising."""
    if a.__class__ is not b.__class__:
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(a))


@dataclass(frozen=True)
class TwoModeCovariance:
    """A real 4x4 covariance matrix in the (q1, p1, q2, p2) basis.

    The wrapped array is made read-only.  Construction checks shape, realness
    and finiteness only; physicality is the job of :func:`validate_cm`.
    """

    matrix: np.ndarray

    __eq__ = _contents_equal

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise InvalidInput(f"covariance matrix must be 4x4, got {m.shape}")
        if np.count_nonzero(np.isfinite(m)) != 16:
            raise InvalidInput("covariance matrix has non-finite entries")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _wrap(cls, m):
        """A TwoModeCovariance around m, a read-only, finite float 4x4 array
        that the package has just built: no second check and no copy."""
        cm = object.__new__(cls)
        object.__setattr__(cm, "matrix", m)
        return cm

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_standard_form(cls, v11, v33, v13, v22=None, v44=None, v24=None):
        """Build the sparse standard-form matrix from its distinct elements.

        Omitted p-sector elements default to the STS pattern v22 = v11,
        v44 = v33, v24 = -v13.  A non-finite element raises InvalidInput.
        The read-only matrix is built in one allocation and wrapped without
        the constructor's second check and copy.
        """
        v22 = v11 if v22 is None else v22
        v44 = v33 if v44 is None else v44
        v24 = -v13 if v24 is None else v24
        if not all(map(math.isfinite, (v11, v22, v33, v44, v13, v24))):
            raise InvalidInput("covariance matrix has non-finite entries")
        m = np.array((v11, 0.0, v13, 0.0,
                      0.0, v22, 0.0, v24,
                      v13, 0.0, v33, 0.0,
                      0.0, v24, 0.0, v44), dtype=float)
        m.setflags(write=False)  # before reshaping, so no writeable base remains
        return cls._wrap(m.reshape(4, 4))

    @classmethod
    def vacuum(cls):
        return cls(0.5 * np.eye(4))

    @classmethod
    def squeezed_thermal(cls, r, n1=0.0, n2=0.0):
        """Two thermal modes (occupations n1, n2) after a two-mode squeezer.

        Exact STS standard form, bona fide by construction:
        v11 = (n1+1/2)cosh^2 r + (n2+1/2)sinh^2 r, v13 = (n1+n2+1)cosh r sinh r.
        """
        if r < 0 or n1 < 0 or n2 < 0:
            raise InvalidInput("squeezing and occupations must be >= 0")
        ch, sh = math.cosh(r), math.sinh(r)
        v11 = (n1 + 0.5) * ch * ch + (n2 + 0.5) * sh * sh
        v33 = (n2 + 0.5) * ch * ch + (n1 + 0.5) * sh * sh
        v13 = (n1 + n2 + 1.0) * ch * sh
        return cls.from_standard_form(v11, v33, v13)

    @classmethod
    def two_mode_squeezed_vacuum(cls, r):
        """Pure two-mode squeezed vacuum: v11 = v33 = cosh(2r)/2, v13 = sinh(2r)/2."""
        return cls.squeezed_thermal(r, 0.0, 0.0)

    # -- element and block access ------------------------------------------

    @property
    def v11(self):
        return self.matrix[0, 0]

    @property
    def v22(self):
        return self.matrix[1, 1]

    @property
    def v33(self):
        return self.matrix[2, 2]

    @property
    def v44(self):
        return self.matrix[3, 3]

    @property
    def v13(self):
        return self.matrix[0, 2]

    @property
    def v24(self):
        return self.matrix[1, 3]

    @property
    def block_a(self):
        """Mode-A 2x2 block V1."""
        return self.matrix[:2, :2]

    @property
    def block_b(self):
        """Mode-B 2x2 block V2."""
        return self.matrix[2:, 2:]

    @property
    def cross(self):
        """Cross-correlation 2x2 block V3."""
        return self.matrix[:2, 2:]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype)

    @cached_property
    def _steering(self):
        """(G(A->B), G(B->A)) from det V1, det V2 and det V, computed once
        per state on Python floats (an overflow gives inf, not a warning)."""
        m = self.matrix.tolist()
        return _steering_pair(min(m[0][0], m[1][1], m[2][2], m[3][3]),
                              _det2(m, 0, 0), _det2(m, 2, 2), _det4(m), FLOAT_MATH)


@dataclass(frozen=True)
class StsColumns:
    """Squeezed thermal states in STS standard form: one state or a column.

    Entry k is the state with v11 = v22 = v11[k], v33 = v44 = v33[k],
    v13 = -v24 = v13[k] and every q-p entry zero.  Three floats are one
    state, which the measures evaluate with ``FLOAT_MATH`` into floats;
    otherwise the columns are read-only float arrays of one shape, and the
    measures return arrays of that shape, evaluated with numpy.
    """

    v11: np.ndarray
    v33: np.ndarray
    v13: np.ndarray

    __eq__ = _contents_equal

    def __post_init__(self):
        entries = (self.v11, self.v33, self.v13)
        if all(isinstance(v, float) for v in entries):
            entries = tuple(map(float, entries))  # numpy scalars would warn
            if not all(map(math.isfinite, entries)):
                raise InvalidInput("STS entries are not finite")
        else:
            try:
                entries = np.array(entries, dtype=float)
            except ValueError:
                raise InvalidInput("v11, v33 and v13 must have the same shape") from None
            if not np.isfinite(entries).all():
                raise InvalidInput("STS columns have non-finite entries")
            entries.setflags(write=False)
        for name, value in zip(("v11", "v33", "v13"), entries):
            object.__setattr__(self, name, value)

    def _steering_with(self, xp):
        """det V1 = v11^2, det V2 = v33^2, det V = g^2, g = v11 v33 - v13^2."""
        v11, v33, v13 = self.v11, self.v33, self.v13
        g = v11 * v33 - v13 * v13
        return _steering_pair(xp.minimum(v11, v33), v11 * v11, v33 * v33, g * g, xp)

    @cached_property
    def _steering(self):
        if isinstance(self.v11, float):
            return self._steering_with(FLOAT_MATH)
        # Overflow at huge squeezing surfaces as NonPhysicalState, not warnings.
        with np.errstate(all="ignore"):
            return self._steering_with(np)


@dataclass(frozen=True)
class CmValidity:
    """Validity report of a covariance matrix."""

    symmetric: bool
    positive_definite: bool
    bona_fide: bool
    nu_minus: float
    nu_plus: float

    @property
    def ok(self):
        return self.symmetric and self.positive_definite and self.bona_fide


def _det2(m, i, j):
    """det of the 2x2 block at rows i, i+1 and cols j, j+1 of nested lists."""
    return m[i][j] * m[i + 1][j + 1] - m[i][j + 1] * m[i + 1][j]


def _det4(m):
    """det V of nested lists, using the decoupled q/p sector product when V
    is standard form (on an STS, (v11 v33 - v13^2)^2 as for StsColumns).

    In the standard form the q sector (rows/cols 0, 2) and the p sector
    (rows/cols 1, 3) never mix, so det V = det(q sector) * det(p sector).
    The structured product is permutation-stable, which keeps the mode-swap
    identities exact in floating point; general matrices fall back to LU.
    """
    if all(m[i][j] == 0.0 and m[j][i] == 0.0 for i, j in _OFF_PATTERN):
        qdet = m[0][0] * m[2][2] - m[0][2] * m[2][0]
        pdet = m[1][1] * m[3][3] - m[1][3] * m[3][1]
        return qdet * pdet
    with np.errstate(all="ignore"):  # an overflow gives inf, as on floats
        return float(np.linalg.det(m))


def symplectic_eigenvalues(cm: TwoModeCovariance):
    """Both symplectic eigenvalues (nu_minus, nu_plus) of a two-mode matrix.

    Uses the closed form from the symplectic invariants,
    nu^2 = (Delta -+ sqrt(Delta^2 - 4 det V))/2 with
    Delta = det V1 + det V2 + 2 det V3.  Vacuum gives nu = 1/2.
    """
    m = cm.matrix.tolist()
    delta = _det2(m, 0, 0) + _det2(m, 2, 2) + 2.0 * _det2(m, 0, 2)
    det_v = _det4(m)
    disc = math.sqrt(max(delta * delta - 4.0 * det_v, 0.0))
    nu_minus = math.sqrt(max((delta - disc) / 2.0, 0.0))
    nu_plus = math.sqrt(max((delta + disc) / 2.0, 0.0))
    return nu_minus, nu_plus


def validate_cm(cm: TwoModeCovariance, tol_phys=1e-9) -> CmValidity:
    """Physicality gate: symmetry, positive definiteness, bona fide flag.

    bona fide means min(nu) >= 1/2 - tol_phys in the vacuum-1/2 convention.
    """
    m = cm.matrix
    symmetric = bool(np.array_equal(m, m.T))
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    positive_definite = bool(np.all(eigs > 0.0))
    nu_minus, nu_plus = symplectic_eigenvalues(cm)
    bona_fide = nu_minus >= 0.5 - tol_phys
    return CmValidity(symmetric, positive_definite, bona_fide, nu_minus, nu_plus)


def swap_modes(cm: TwoModeCovariance) -> TwoModeCovariance:
    """Exchange the two modes: (q1, p1) <-> (q2, p2)."""
    idx = (2, 3, 0, 1)
    return TwoModeCovariance(cm.matrix[np.ix_(idx, idx)])


def _log(x, xp):
    """ln x of a measure's log argument, which is finite and positive for
    every state that double precision resolves; NonPhysicalState otherwise
    (at large squeezing the determinants overflow or cancel to garbage)."""
    try:
        y = xp.log(x)  # numpy: -inf or nan for x <= 0, under np.errstate
    except ValueError:  # math.log of x <= 0
        y = math.nan
    if xp.any(y - y):  # y - y is nan exactly where y is not finite
        raise NonPhysicalState(
            "log argument of a measure is not finite and positive: "
            "the state is not resolvable in double precision"
        )
    return y


def _steering_value(det_measured, det_v, xp):
    """max[0, (1/2) ln(det V_m / (4 det V))], V_m the block of the measured
    mode; xp is numpy or FLOAT_MATH."""
    return xp.maximum(0.0, 0.5 * _log(det_measured / (4.0 * det_v), xp))


def _steering_pair(min_variance, det_a, det_b, det_v, xp):
    """(G(A->B), G(B->A)) of a matrix or StsColumns from its smallest
    variance, det V1, det V2 and det V; NonPhysicalState unless all are > 0."""
    if xp.any((min_variance <= 0.0) | (det_a <= 0.0) | (det_b <= 0.0)
              | (det_v <= 0.0)):
        raise NonPhysicalState("non-positive variance or determinant")
    return _steering_value(det_a, det_v, xp), _steering_value(det_b, det_v, xp)


def steering_a_to_b(cm):
    """Gaussian steerability of mode B by measurements on mode A.

    max[0, (1/2) ln(det V1 / (4 det V))]; zero iff the state is not
    A->B steerable under Gaussian measurements.  A TwoModeCovariance or one
    state gives a float, StsColumns of columns one value per entry.
    """
    return cm._steering[0]


def steering_b_to_a(cm):
    """Gaussian steerability of mode A by measurements on mode B."""
    return cm._steering[1]


def steering_asymmetry(cm):
    """|G(A->B) - G(B->A)|.  Always below ln 2 for standard-form states."""
    return abs(steering_a_to_b(cm) - steering_b_to_a(cm))


def _require_sts(cm: TwoModeCovariance):
    """(v11, v33, v13) of a matrix in STS standard form to STS_FORM_RTOL of
    its largest variance, as floats; UnsupportedForm otherwise."""
    m = cm.matrix.tolist()
    tol = STS_FORM_RTOL * max(m[0][0], m[1][1], m[2][2], m[3][3])
    dev = max(
        abs(m[0][0] - m[1][1]),
        abs(m[2][2] - m[3][3]),
        abs(m[0][2] + m[1][3]),
        max(abs(m[i][j]) for i, j in _OFF_PATTERN),
        max(abs(m[j][i]) for i, j in _OFF_PATTERN),
        abs(m[0][2] - m[2][0]),
        abs(m[1][3] - m[3][1]),
    )
    # An exact STS passes even when every variance is negative (tol < 0).
    if dev > max(tol, 0.0):
        raise UnsupportedForm(
            f"matrix deviates from STS standard form by {dev:.3e} (tol {tol:.3e})"
        )
    return m[0][0], m[2][2], m[0][2]


def _renyi2_terms(v11, v33, v13, xp):
    """s, d, g of STS entries and whether each lies on the entangled branch;
    NonPhysicalState for the gap region (see renyi2_entanglement) and where
    s or g is not finite (v11 v33 overflows: inf - inf would fail the branch
    test and read as separable)."""
    s = 0.5 * (v11 + v33)
    d = 0.5 * (v11 - v33)
    g = v11 * v33 - v13 * v13
    if xp.any((s - s) + (g - g)):  # nan exactly where s or g is not finite
        raise NonPhysicalState(
            "s or g of the state is not finite: "
            "the state is not resolvable in double precision"
        )
    entangled = 4.0 * g < 4.0 * s - 1.0
    # g carries cancellation error of order eps * scale^2, so pure states that
    # sit exactly on the 4g = 4|d| + 1 boundary may land an ulp below it;
    # allow that sliver and reject only genuine gap-region inputs.
    gap_tol = 1e-12 * xp.maximum(1.0, s * s)
    gap = entangled & (4.0 * g < 4.0 * abs(d) + 1.0 - gap_tol)
    if xp.any(gap):
        k = np.flatnonzero(gap)[0]
        g_k, d_k = np.ravel(g)[k], np.ravel(d)[k]
        raise NonPhysicalState(
            f"4g = {4 * g_k:.6g} < 4|d| + 1 = {4 * abs(d_k) + 1:.6g}: not a bona fide STS"
        )
    return s, d, g, entangled


def _renyi2_entangled(s, d, g, xp):
    """E2 on the entangled branch."""
    # Both factors are nonnegative on this branch ((4g-1)^2 >= 16d^2 and
    # s^2 - d^2 - g = v13^2); the clamps only absorb rounding at the edges.
    rad = (xp.maximum((4.0 * g - 1.0) ** 2 - 16.0 * d * d, 0.0)
           * xp.maximum(s * s - d * d - g, 0.0))
    ratio = ((4.0 * g + 1.0) * s - xp.sqrt(rad)) / (4.0 * (d * d + g))
    return xp.maximum(0.0, _log(ratio, xp))


def renyi2_entanglement(cm):
    """Gaussian Renyi-2 entanglement E2 of a squeezed thermal state.

    With s = (v11+v33)/2, d = (v11-v33)/2 and g = v11*v33 - v13^2:

    * separable branch, 4g >= 4s - 1: E2 = 0;
    * entangled branch, 4|d| + 1 <= 4g < 4s - 1:
      E2 = (1/2) ln h with
      h = [((4g+1)s - sqrt([(4g-1)^2 - 16 d^2][s^2 - d^2 - g])) / (4(d^2+g))]^2.

    A TwoModeCovariance or one state gives a float, StsColumns of columns
    one value per entry.  Matrices outside the STS standard form raise
    UnsupportedForm; the region 4g < 4|d| + 1 cannot occur for bona fide
    STS states and raises NonPhysicalState rather than extrapolating.
    """
    if isinstance(cm, TwoModeCovariance):
        cm = StsColumns(*_require_sts(cm))
    if not isinstance(cm.v11, float):
        # Separable entries may lie outside the formula's domain: skip them.
        with np.errstate(all="ignore"):
            s, d, g, entangled = _renyi2_terms(cm.v11, cm.v33, cm.v13, np)
            e2 = np.zeros(entangled.shape)
            e2[entangled] = _renyi2_entangled(
                s[entangled], d[entangled], g[entangled], np
            )
        return e2
    s, d, g, entangled = _renyi2_terms(cm.v11, cm.v33, cm.v13, FLOAT_MATH)
    if not entangled:
        return 0.0
    try:
        return _renyi2_entangled(s, d, g, FLOAT_MATH)
    except ArithmeticError as exc:  # float ** overflows, or 4(d^2+g) cancels to 0
        raise NonPhysicalState(
            "E2 is not resolvable in double precision for this state"
        ) from exc


def classify_steering(cm, epsilon=1e-9):
    """Classify the steering direction against a positivity tolerance.

    A TwoModeCovariance or one state gives a SteeringClass, StsColumns of
    columns an object array of them, one per entry.
    """
    if not 0.0 < epsilon < math.inf:
        raise InvalidInput("epsilon must be positive and finite")
    g_ab, g_ba = cm._steering
    return _CLASS_BY_CODE[(g_ab > epsilon) + 2 * (g_ba > epsilon)]
