"""FCC neighbor-shell enumeration and finite spherical clusters.

The FCC lattice with nearest-neighbor distance d is generated by the
primitive vectors (d/sqrt(2))*(0,1,1), (d/sqrt(2))*(1,0,1), (d/sqrt(2))*(1,1,0),
so every site is

    x(n1,n2,n3) = (d/sqrt(2)) * (n2+n3, n1+n3, n1+n2),   n_i integer,

and the squared distance is (d^2/2) * m with integer
m = (n2+n3)^2 + (n1+n3)^2 + (n1+n2)^2.  Shell grouping is therefore exact:
sites are binned by the integer m, never by floating-point distance
comparisons.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class LatticeKind(enum.Enum):
    FCC = "fcc"


#: the largest max_distance/d enumerate_shells takes: its integer box holds
#: (2 ceil(sqrt(2) ratio) + 3)^3 sites, 3e6 (~0.2 GB at peak) at 50, where
#: the default cutoff asks for 12
MAX_SHELL_RATIO = 50.0

#: the largest cluster build_cluster takes: its integer box holds ~4.5 N
#: sites, ~0.25 GB at 10^6
MAX_CLUSTER_SIZE = 10**6


def _read_only(values, dtype) -> np.ndarray:
    """`values` as a write-protected 1-D array: a read-only array of the
    right dtype is kept as it is, anything else is copied first."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.ndim == 1 and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=dtype).reshape(-1)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class LatticeShells:
    """Ordered neighbor shells of one site: distances r_n and counts c_n.

    Both are read-only numpy arrays, so a shell structure can be shared
    (the optimizer caches its unit shells) and rescaled without copying
    its counts.  `weights` holds the shell-sum weights 0.5 c_n (the 1/2
    stops double counting) as a read-only float array, made once and
    shared by every rescaled copy.  Equality is identity: arrays have no
    single truth value.  A spacing that is not positive and finite, or
    distances that are not finite, >= 0 and ascending, raise ValueError.
    """

    spacing_d: float
    distances_r: np.ndarray  # ascending shell distances
    counts_c: np.ndarray  # coordination count of each shell
    weights: np.ndarray = field(init=False, repr=False)  # 0.5 * counts_c

    def __post_init__(self) -> None:
        if not (math.isfinite(self.spacing_d) and self.spacing_d > 0.0):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing_d}")
        r = _read_only(self.distances_r, float)
        c = _read_only(self.counts_c, np.int64)
        if r.shape != c.shape:
            raise ValueError(f"{r.size} distances but {c.size} counts")
        if not (np.isfinite(r).all() and np.all(r[1:] >= r[:-1]) and np.all(r >= 0.0)):
            raise ValueError(f"shell distances must be finite, >= 0 and ascending, "
                             f"got {r.tolist()}")
        object.__setattr__(self, "distances_r", r)
        object.__setattr__(self, "counts_c", c)
        object.__setattr__(self, "weights", _read_only(0.5 * c, float))

    @property
    def shells(self) -> tuple[tuple[float, int], ...]:
        """(distance, count) pairs, for readers that iterate shells."""
        return tuple(zip(self.distances_r.tolist(), self.counts_c.tolist()))

    def scaled(self, new_d: float) -> "LatticeShells":
        """Same shell structure at a different lattice spacing.

        Coordination counts are spacing-independent; distances rescale
        linearly.  Used by the optimizer to avoid re-enumerating while d
        moves, once per energy evaluation, so the copy skips
        __post_init__: its arrays are this structure's own, already
        checked, and it shares the counts and weights.  A spacing whose
        largest distance, the last, leaves the doubles raises ValueError.
        """
        if not (math.isfinite(new_d) and new_d > 0.0):
            raise ValueError(f"spacing must be positive and finite, got {new_d}")
        ratio = new_d / self.spacing_d
        if self.distances_r.size and not math.isfinite(float(self.distances_r[-1]) * ratio):
            raise ValueError(f"spacing {new_d!r} puts the shell distances beyond the doubles")
        distances = self.distances_r * ratio
        distances.flags.writeable = False
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, spacing_d=new_d, distances_r=distances)
        return out


def _fcc_coords(nmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer coordinates x/(d/sqrt(2)) of the sites with every |n_i| <= nmax."""
    rng = np.arange(-nmax, nmax + 1)
    n1, n2, n3 = np.meshgrid(rng, rng, rng, indexing="ij")
    return (n2 + n3).ravel(), (n1 + n3).ravel(), (n1 + n2).ravel()


def enumerate_shells(kind: LatticeKind, d: float, max_distance: float) -> LatticeShells:
    """All distinct inter-site distances <= max_distance, with multiplicities.

    Brute-force enumeration over a padded integer box.  A site at distance r
    has m = 2 (r/d)^2 <= m_max; each of n1, n2, n3 is bounded by
    sqrt(6)/2 * r/d < sqrt(2) * r/d, so the box below is safely padded.  A
    ratio max_distance/d above MAX_SHELL_RATIO raises ValueError before the
    box is built.
    """
    if kind is not LatticeKind.FCC:
        raise ValueError(f"unsupported lattice kind: {kind}")
    if not (math.isfinite(d) and d > 0.0):
        raise ValueError(f"spacing must be positive and finite, got {d}")
    if not math.isfinite(max_distance):
        raise ValueError(f"max_distance must be finite, got {max_distance}")
    if max_distance < d:
        raise ValueError(f"max_distance {max_distance} is below one spacing {d}")

    try:
        m_max = math.floor(2.0 * (max_distance / d) ** 2 + 1e-9)
    except OverflowError as exc:  # (max_distance/d)^2 is past the doubles
        raise ValueError(f"spacing {d!r} is too small for max_distance "
                         f"{max_distance!r}") from exc
    if max_distance / d > MAX_SHELL_RATIO:
        raise ValueError(f"max_distance {max_distance!r} is more than {MAX_SHELL_RATIO:g} "
                         f"spacings {d!r}")
    cx, cy, cz = _fcc_coords(math.ceil(math.sqrt(2.0) * max_distance / d) + 1)
    m = cx * cx + cy * cy + cz * cz
    m = m[(m > 0) & (m <= m_max)]
    counts = np.bincount(m, minlength=m_max + 1)
    occupied = np.flatnonzero(counts)
    return LatticeShells(spacing_d=d,
                         distances_r=d * np.sqrt(occupied / 2.0),
                         counts_c=counts[occupied])


def build_cluster(d: float, N: int) -> np.ndarray:
    """The N FCC sites closest to the origin, rigidly re-centered, as a
    read-only (N, 3) array.

    Ordering is by squared distance, with exact lexicographic tie-breaking
    on the integer coordinates (which order identically to the Cartesian
    ones, so the result is platform-independent).  N above
    MAX_CLUSTER_SIZE raises ValueError.
    """
    if not (math.isfinite(d) and d > 0.0):
        raise ValueError(f"spacing must be positive and finite, got {d}")
    # the growth loop below ends once N sites are inside, which a NaN or an
    # infinite N never allows
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"cluster size must be an integer >= 1, got {N!r}")
    if N > MAX_CLUSTER_SIZE:
        raise ValueError(f"cluster size N={N!r} is above {MAX_CLUSTER_SIZE}")

    # FCC site density is sqrt(2)/d^3; start from the radius, in units of
    # d, enclosing N sites on average and grow until enough candidates are
    # inside.  The sites chosen do not depend on d, which scales them last.
    radius = (3.0 * N / (4.0 * math.pi * math.sqrt(2.0))) ** (1.0 / 3.0) + 2.0
    while True:
        cx, cy, cz = _fcc_coords(math.ceil(math.sqrt(2.0) * radius) + 1)
        m = cx * cx + cy * cy + cz * cz
        keep = m <= math.floor(2.0 * radius**2)
        if int(np.count_nonzero(keep)) >= N:
            break
        radius *= 1.3

    m, cx, cy, cz = m[keep], cx[keep], cy[keep], cz[keep]
    order = np.lexsort((cz, cy, cx, m))[:N]  # by m, then x, y and z
    chosen = np.stack((cx[order], cy[order], cz[order]), axis=1).astype(float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        sites = chosen * (d / math.sqrt(2.0))
        sites -= sites.mean(axis=0)
    if not np.isfinite(sites).all():
        raise ValueError(f"spacing {d!r} puts the cluster's sites or their "
                         "centroid beyond the doubles")
    sites.flags.writeable = False
    return sites
