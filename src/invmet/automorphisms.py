"""Holomorphic self-maps of the model domains in closed form.

Every map here exposes ``__call__(z)`` (batch-friendly on the last axis),
``derivative(z)`` returning the complex Jacobian matrix, and ``inverse()``.
"""

from __future__ import annotations

import numpy as np

from .core import cvector
from .errors import NotInteriorError, SingularMapError


class Mobius1D:
    """z -> (a z + b) / (c z + d) on C, as a 2x2 complex matrix."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        if a * d - b * c == 0:
            raise SingularMapError("Moebius matrix is singular")
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def disc_to_origin(cls, p, radius: float = 1.0) -> "Mobius1D":
        """Automorphism of the disc |z| < radius sending p to 0."""
        p = complex(p)
        if abs(p) >= radius:
            raise NotInteriorError("point is not inside the disc")
        r2 = radius * radius
        return cls(r2, -r2 * p, -np.conj(p), r2)

    @classmethod
    def disc_move(cls, frm, to, radius: float = 1.0) -> "Mobius1D":
        """Automorphism of the disc |z| < radius sending frm to to."""
        m1 = cls.disc_to_origin(frm, radius)
        m2 = cls.disc_to_origin(to, radius).inverse()
        return m2.compose(m1)

    @classmethod
    def halfplane_move(cls, frm, to, bound: float = 0.0) -> "Mobius1D":
        """Real-affine automorphism of Re z < bound sending frm to to:
        z -> s z + bound (1 - s) + i (Im to - s Im frm), with
        s = (Re to - bound) / (Re frm - bound)."""
        frm, to = complex(frm), complex(to)
        if frm.real >= bound or to.real >= bound:
            raise NotInteriorError("points must lie in the half-plane")
        s = (to.real - bound) / (frm.real - bound)
        return cls(s, bound * (1.0 - s) + 1j * (to.imag - s * frm.imag), 0, 1)

    @classmethod
    def cayley_factor(cls) -> "Mobius1D":
        """zeta -> (1 + zeta)/(1 - zeta): left half-plane Re zeta < 0 onto the disc."""
        return cls(1, 1, -1, 1)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        den = self.c * z + self.d
        if np.any(den == 0):
            raise SingularMapError("Moebius map evaluated at its pole")
        return (self.a * z + self.b) / den

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        den = self.c * z + self.d
        if np.any(den == 0):
            raise SingularMapError("Moebius derivative evaluated at its pole")
        return (self.a * self.d - self.b * self.c) / (den * den)

    def inverse(self) -> "Mobius1D":
        return Mobius1D(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "Mobius1D") -> "Mobius1D":
        """self after other (matrix product)."""
        return Mobius1D(self.a * other.a + self.b * other.c,
                        self.a * other.b + self.b * other.d,
                        self.c * other.a + self.d * other.c,
                        self.c * other.b + self.d * other.d)

    def disc_image(self, center, radius):
        """Exact image of the disc |z - center| <= radius (pole outside required).

        Returns (center', radius'). Moebius maps send discs to discs; the image
        is computed by splitting off the inversion part.
        """
        center = complex(center)
        radius = float(radius)
        if self.c == 0:
            s = self.a / self.d
            return s * center + self.b / self.d, abs(s) * radius
        pole = -self.d / self.c
        if abs(pole - center) <= radius * (1 + 1e-12):
            raise SingularMapError("disc image through the pole is unbounded")
        # (a z + b)/(c z + d) = a/c + (b - a d / c) / (c z + d)
        # inner affine w = c z + d maps the disc to |w - w0| <= s0
        w0 = self.c * center + self.d
        s0 = abs(self.c) * radius
        # inversion u = 1/w of |w - w0| <= s0 (0 outside): standard circle inversion
        den = abs(w0) ** 2 - s0 ** 2
        u0 = np.conj(w0) / den
        su = s0 / abs(den)
        coef = self.b - self.a * self.d / self.c
        return self.a / self.c + coef * u0, abs(coef) * su

    def __repr__(self):
        return f"Mobius1D({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


class ComponentwiseMap:
    """Product map acting by an independent Mobius1D in each coordinate."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(factors)

    @property
    def dim(self) -> int:
        return len(self.factors)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.empty_like(z)
        for k, f in enumerate(self.factors):
            out[..., k] = f(z[..., k])
        return out

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        return np.diag([f.derivative(z[k]) for k, f in enumerate(self.factors)])

    def inverse(self) -> "ComponentwiseMap":
        return ComponentwiseMap([f.inverse() for f in self.factors])


class BallMobius:
    """The classical involutive automorphism phi_a of the unit ball, phi_a(a) = 0.

    phi_a(z) = (a - P z - s Q z) / (1 - <z, a>) with P the Hermitian projection
    onto a, Q = I - P, s = sqrt(1 - |a|^2).  phi_a(0) = a and phi_a o phi_a = id.
    """

    __slots__ = ("a", "_P", "_s")

    def __init__(self, a):
        a = cvector(a)
        na = np.linalg.norm(a)
        if na >= 1.0:
            raise NotInteriorError("parameter must lie inside the unit ball")
        self.a = a
        self._s = float(np.sqrt(1.0 - na * na))
        if na == 0.0:
            self._P = np.zeros((a.size, a.size), dtype=complex)
        else:
            self._P = np.outer(a, a.conj()) / (na * na)

    @property
    def dim(self) -> int:
        return self.a.size

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        P, s, a = self._P, self._s, self.a
        pz = z @ P.T
        den = 1.0 - z @ a.conj()
        if np.any(den == 0):
            raise SingularMapError("ball automorphism evaluated at its pole")
        num = a - pz - s * (z - pz)
        return num / den[..., None] if z.ndim > 1 else num / den

    def derivative(self, z):
        z = cvector(z)
        P, s, a = self._P, self._s, self.a
        den = 1.0 - complex(z @ a.conj())
        if den == 0:
            raise SingularMapError("ball automorphism derivative at its pole")
        Q = np.eye(self.dim, dtype=complex) - P
        img = self(z)
        return (-(P + s * Q) + np.outer(img, a.conj())) / den

    def inverse(self) -> "BallMobius":
        return self


class ComposedMap:
    """Composition chain; maps[0] is applied first, and a chain among them spliced in."""

    __slots__ = ("maps",)

    def __init__(self, maps):
        self.maps = tuple(f for m in maps for f in (m.maps if isinstance(m, ComposedMap) else [m]))
        if not self.maps:
            raise ValueError("need at least one map")

    def __call__(self, z):
        out = np.asarray(z, dtype=complex)
        for m in self.maps:
            out = m(out)
        return out

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        J = self.maps[0].derivative(z)
        for prev, m in zip(self.maps, self.maps[1:]):
            z = prev(z)
            J = m.derivative(z) @ J
        return J

    def inverse(self) -> "ComposedMap":
        return ComposedMap([m.inverse() for m in reversed(self.maps)])


def ball_move(frm, to):
    """Automorphism of the unit ball sending ``frm`` to ``to``: phi_to o
    phi_frm, through 0.  As phi_0(z) = -z, the move from 0 to 0 is exactly
    z, with derivative exactly I."""
    return ComposedMap([BallMobius(frm), BallMobius(to)])


def cayley(n: int) -> ComponentwiseMap:
    """Componentwise zeta -> (1 + zeta)/(1 - zeta), H^n (Re < 0) onto the polydisc.

    Sends the origin to (1, ..., 1) and (-1, ..., -1) to the origin; each factor
    has a pole at zeta = 1.
    """
    return ComponentwiseMap([Mobius1D.cayley_factor() for _ in range(n)])
