"""Time-dependent gate Hamiltonians, their dark states, and the DFS projection.

The three logical gates share one generator: a lambda-type coupling
between an ancilla level and two other levels, with mixing angle
theta(t) = a*sin(2*pi*t/T) and drive phase phi(t) = 2*pi*t/T, embedded at
the levels listed in _EMBEDDINGS.  Its nonzero eigenvalues are -1 and +1
at every instant (the gap never closes and never moves), which is what
makes the accelerated-adiabaticity control scheme work: energy
differences in the rotating frame are constants.  So every generator
satisfies H^3 = H; gate_generators returns whole time grids in that form
-- the coupled levels and the 3x3 stack -- which is what lets propagation
exponentiate in closed form.

The four-physical-qubit exchange Hamiltonian (XY hopping plus a
Dzialoshinski-Moriya term on one bond, :func:`exchange_hamiltonian`)
commutes with the total Z = sum_i sigma_z^i, so the single-excitation
block is decoherence-free under collective dephasing.  Restricted to that
block it is the phase-gate generator scaled by s = hypot(J12, J13), with
theta = atan(J13/J12), so the gates are propagated on the logical levels
only.

Basis conventions, used everywhere:
  * logical levels ordered (|0>, |1>, |2>, |3>)
  * the x-gate works in (|+>, |->, |2>, |3>) with |+-> = (|0> +- |1>)/sqrt(2),
    represented in the same 4-dim array by basis relabeling
  * two logical qubits: row-major 4x4, |j,k> -> index 4*j + k
  * four physical qubits |abcd>: leftmost label = qubit 1 = most significant
    bit of the 16-dim index
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# Computational-basis indices of the logical levels |0>, |1>, |2>, |3>:
# |0001>, |0010>, |1000>, |0100>.  All four carry one excitation, so they
# share a total-Z eigenspace and the block is decoherence free.
DFS_INDICES = (0b0001, 0b0010, 0b1000, 0b0100)


class GateKind(enum.Enum):
    PHASE = "phase"
    XGATE = "xgate"
    CPHASE = "cphase"


# kind -> (dim, lo, anc, hi, trivially dark indices) of its lambda coupling.
# The x-gate shares the phase gate's entries; only the meaning of the first
# two slots changes (|+->, not |0>/|1>).  cphase couples |1,1>, |2,1>, |3,1>
# and leaves |0,0>, |0,1>, |1,0> dark.
_EMBEDDINGS = {
    GateKind.PHASE: (4, 1, 2, 3, (0,)),
    GateKind.XGATE: (4, 1, 2, 3, (0,)),
    GateKind.CPHASE: (16, 5, 9, 13, (0, 1, 4)),
}


@dataclass(frozen=True)
class Schedule:
    """Cyclic drive: theta(t) = a*sin(2*pi*t/T), phi(t) = 2*pi*t/T.

    theta, theta_dot, phi and phi_dot take a time or an array of times in
    [0, T] and return the same shape; this is the one place the drive is
    written down.
    """

    a: float
    T: float

    def __post_init__(self):
        # the phase 2 pi t / T must stay finite at t = T
        if not 0 < TWO_PI * self.T < math.inf:
            raise ValueError(f"period T must be positive with 2 pi T finite, got {self.T}")
        if not 0 <= self.a < math.inf:
            raise ValueError(f"amplitude a must be finite and >= 0, got {self.a}")

    def _check_t(self, t) -> np.ndarray:
        """t as a float array, rejected unless every entry lies in [0, T]."""
        t = np.asarray(t, dtype=float)
        tol = 1e-9 * max(self.T, 1.0)
        if t.size and not (t.min() >= -tol and t.max() <= self.T + tol):
            raise ValueError(f"time outside [0, {self.T}]: got [{t.min()}, {t.max()}]")
        return t

    def theta(self, t):
        return self.a * np.sin(self.phi(t))

    def theta_dot(self, t):
        return self.a * self.phi_dot(t) * np.cos(self.phi(t))

    def phi(self, t):
        return TWO_PI * self._check_t(t) / self.T

    def phi_dot(self, t):
        return np.zeros_like(self._check_t(t)) + TWO_PI / self.T


@dataclass(frozen=True)
class GateSpec:
    """Which gate to run: kind and drive schedule."""

    kind: GateKind
    schedule: Schedule

    @property
    def dim(self) -> int:
        return _EMBEDDINGS[self.kind][0]


def _pauli_on(op: np.ndarray, qubit: int) -> np.ndarray:
    """Embed a single-qubit operator at position `qubit` of four (MSB first)."""
    out = np.eye(1, dtype=complex)
    for q in range(4):
        out = np.kron(out, op if q == qubit else ID2)
    return out


def _exchange_xy(l: int, m: int) -> np.ndarray:
    """(sigma_x sigma_x + sigma_y sigma_y)/2 on qubits l, m."""
    return 0.5 * (_pauli_on(PAULI_X, l) @ _pauli_on(PAULI_X, m)
                  + _pauli_on(PAULI_Y, l) @ _pauli_on(PAULI_Y, m))


def _exchange_dm(l: int, m: int) -> np.ndarray:
    """(sigma_x sigma_y - sigma_y sigma_x)/2 on qubits l, m."""
    return 0.5 * (_pauli_on(PAULI_X, l) @ _pauli_on(PAULI_Y, m)
                  - _pauli_on(PAULI_Y, l) @ _pauli_on(PAULI_X, m))


def total_z() -> np.ndarray:
    """Collective dephasing axis Z = sum_i sigma_z^i on four qubits."""
    return sum(_pauli_on(PAULI_Z, q) for q in range(4))


def exchange_hamiltonian(j12: float, j13: float, varphi) -> np.ndarray:
    """Four-qubit exchange Hamiltonians at the drive phases varphi, shape (..., 16, 16).

    H = J13 * XY(1,3) + J12 * [cos(varphi) * XY(1,2) - sin(varphi) * DM(1,2)]
    on the 16-dim space.  Commutes with total Z, so it is block diagonal in
    the excitation number; the single-excitation block is the DFS.  Every
    H satisfies H^3 = s^2 H with s = hypot(J12, J13).
    """
    varphi = np.asarray(varphi, dtype=float)
    terms = np.stack([_exchange_xy(0, 2), _exchange_xy(0, 1), _exchange_dm(0, 1)])
    coeffs = np.stack([np.full_like(varphi, j13), j12 * np.cos(varphi),
                       -j12 * np.sin(varphi)], axis=-1)
    return np.tensordot(coeffs, terms, axes=1)


def project_dfs(h: np.ndarray):
    """Restrict a 16-dim operator to the DFS block.

    Returns ``(block, leakage)`` where block[i, j] = <b_i|H|b_j> over the
    DFS_INDICES states b_i, in the logical order, and leakage is the largest
    matrix element connecting the DFS to any computational state outside it.
    For any generator commuting with total Z the leakage is zero to rounding.
    """
    if h.shape != (16, 16):
        raise ValueError(f"expected a 16x16 operator, got {h.shape}")
    idx = list(DFS_INDICES)
    outside = [x for x in range(16) if x not in DFS_INDICES]
    return h[np.ix_(idx, idx)], float(np.max(np.abs(h[np.ix_(outside, idx)])))


def dark_states(spec: GateSpec, t: float) -> list:
    """Instantaneous zero-eigenvalue eigenstates of the gate generator.

    The trivially dark basis states come first; the last entry is always
    the phase-carrying dark state cos(theta)|lo> - e^{-i phi} sin(theta)|hi>
    (the one whose Berry phase realizes the gate).
    """
    dim, lo, _, hi, trivial = _EMBEDDINGS[spec.kind]
    th, ph = spec.schedule.theta(t), spec.schedule.phi(t)
    states = []
    for idx in trivial:
        v = np.zeros(dim, dtype=complex)
        v[idx] = 1.0
        states.append(v)
    d = np.zeros(dim, dtype=complex)
    d[lo] = math.cos(th)
    d[hi] = -np.exp(-1j * ph) * math.sin(th)
    states.append(d)
    return states


def gate_generators(spec: GateSpec, ts):
    """Generators at every time in ts, restricted to the levels they act on.

    Returns ``(levels, stack)``: levels is the (lo, anc, hi) triple of the
    embedding and stack[k] the 3x3 lambda coupling at ts[k], sin(theta) on
    lo<->anc plus cos(theta)*e^{+-i phi} on anc<->hi.  It is Hermitian by
    construction with eigenvalues {-1, 0, +1}, so H^3 = H.  The full
    spec.dim generator holds stack[k] at rows and columns ``levels`` and is
    zero elsewhere (see :func:`gate_hamiltonian`).
    """
    _, lo, anc, hi, _ = _EMBEDDINGS[spec.kind]
    s = spec.schedule
    # phi and theta as Schedule.phi and Schedule.theta give them, checking ts once
    phi = TWO_PI * s._check_t(ts) / s.T
    th = s.a * np.sin(phi)
    cos_th, e = np.cos(th), np.exp(-1j * phi)
    # built as planes (3, 3, n), the memory qcore multiplies stacks in
    planes = np.zeros((3, 3, len(phi)), dtype=complex)
    planes[0, 1] = planes[1, 0] = np.sin(th)
    np.multiply(cos_th, e, out=planes[2, 1])
    # conj(exp(-i phi)) has the bits of exp(+i phi): cos is even, sin odd
    np.multiply(cos_th, np.conjugate(e), out=planes[1, 2])
    return (lo, anc, hi), np.moveaxis(planes, -1, 0)


def gate_hamiltonian(spec: GateSpec, t: float) -> np.ndarray:
    """Generator for spec.kind at time t on the full spec.dim space.

    The embedding of :func:`gate_generators` at the single time t.
    """
    levels, stack = gate_generators(spec, [t])
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    h[np.ix_(levels, levels)] = stack[0]
    return h
