"""Exact combinatorial engine for finite abstract simplicial complexes.

A complex is its set of simplices, hereditarily closed, and nothing more;
it sorts them by dimension on first read.  Subdivision never needs ambient
geometry: a starring is its carrier alone (the stellar move), the caller
stores piecewise-linear data at the new vertex (`reduction`'s stages keep
f's value there), and where a new vertex sits in space is never used.
There is one starring kernel, `star_at_point`: it edits a simplex set and
its vertex -> cofaces index in place, and every stage, and `make_full`,
builds a `Complex` from the edited set only where it needs one.

Conventions fixed here and used by every other module:

* simplices are strictly sorted vertex tuples;
* a cochain stores its value on the sorted orientation;
* the coboundary is (delta c)(tau) = sum_i (-1)^i c(tau minus i-th vertex),
  vertices of tau in sorted order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

VertexId = int


def permutation_parity(seq) -> int:
    """Sign of the permutation sorting `seq` (entries distinct)."""
    seq = list(seq)
    parity = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[j] < seq[i]:
                seq[i], seq[j] = seq[j], seq[i]
                parity = -parity
    return parity


class Simplex(tuple):
    """A simplex is its strictly sorted, nonempty vertex tuple: it equals,
    hashes and sorts as that tuple."""

    __slots__ = ()

    def __new__(cls, vertices):
        v = tuple(vertices)
        if not v:
            raise ValueError("empty simplex")
        if any(v[i] >= v[i + 1] for i in range(len(v) - 1)):
            raise ValueError(f"vertices must be strictly sorted: {v}")
        return tuple.__new__(cls, v)

    @classmethod
    def of(cls, vertices) -> "Simplex":
        vs = tuple(sorted(vertices))
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated vertex in {vs}")
        return cls(vs)

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self

    @property
    def dim(self) -> int:
        return len(self) - 1

    def faces(self):
        """All nonempty faces, self included."""
        for k in range(1, len(self) + 1):
            for sub in combinations(self, k):
                yield _sorted_simplex(sub)

    def boundary(self):
        """Codimension-1 faces in deletion order, each with its incidence sign:
        ((-1)^i, face with the i-th vertex removed)."""
        if len(self) == 1:
            raise ValueError("empty simplex")
        for i in range(len(self)):
            yield -1 if i % 2 else 1, _sorted_simplex(self[:i] + self[i + 1:])

    def __repr__(self) -> str:
        return f"Simplex(vertices={tuple.__repr__(self)})"


# A Simplex on vertices known to be strictly sorted, not re-validated: every
# face of a valid simplex, and a face followed by a larger new vertex.
_sorted_simplex = partial(tuple.__new__, Simplex)


class Complex:
    """Finite abstract simplicial complex, immutable after construction.

    It takes `Simplex` values and does not check them: a plain vertex tuple
    hashes like its simplex but has no `boundary`, so it fails only later.
    `closure` builds a complex from vertex lists.  The sorted lists by
    dimension are built on first read: many complexes are only searched."""

    __slots__ = ("_simplices", "_by_dim", "_vertices")

    def __init__(self, simplices):
        self._simplices = frozenset(simplices)
        self._by_dim = self._vertices = None

    def _index(self) -> dict[int, list[Simplex]]:
        if self._by_dim is None:  # first read: one loop fills both tables
            by_dim, verts = {}, set()
            for s in self._simplices:
                by_dim.setdefault(len(s) - 1, []).append(s)
                verts.update(s)
            self._by_dim = {k: sorted(group) for k, group in by_dim.items()}
            self._vertices = tuple(sorted(verts))
        return self._by_dim

    # -- basic queries ----------------------------------------------------

    @property
    def simplices(self) -> frozenset[Simplex]:
        return self._simplices

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        if self._vertices is None:  # every vertex, even of a set not face-closed
            self._vertices = tuple(sorted(set().union(*self._simplices)))
        return self._vertices

    @property
    def dim(self) -> int:
        return max(self._index(), default=-1)

    def k_simplices(self, k: int) -> list[Simplex]:
        return list(self._index().get(k, []))

    def __contains__(self, s: Simplex) -> bool:
        return s in self._simplices

    def __len__(self) -> int:
        return len(self._simplices)

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self._simplices == other._simplices

    def __hash__(self) -> int:
        return hash(self._simplices)

    def __repr__(self) -> str:
        return f"Complex({len(self._simplices)} simplices, dim {self.dim})"

    def is_empty(self) -> bool:
        return not self._simplices

    def maximal_simplices(self) -> list[Simplex]:
        """The simplices that are no simplex's codimension-1 face, sorted.
        In a face-closed complex these are exactly the maximal ones: a
        proper coface of s has a face one dimension up that contains s."""
        facets = {t[:i] + t[i + 1:] for t in self._simplices for i in range(len(t))}
        return sorted(s for s in self._simplices if s not in facets)


def closure(simplices) -> Complex:
    """Hereditary closure of the given simplices."""
    all_faces: set[Simplex] = set()
    for s in simplices:
        if not isinstance(s, Simplex):
            s = Simplex.of(s)
        all_faces.update(s.faces())
    return Complex(all_faces)


def coface_index(simplices) -> defaultdict[VertexId, set[Simplex]]:
    """vertex -> the simplices that contain it."""
    cofaces: defaultdict[VertexId, set[Simplex]] = defaultdict(set)
    for s in simplices:
        for v in s:
            cofaces[v].add(s)
    return cofaces


def star_at_point(simplices: set[Simplex], cofaces: dict[VertexId, set[Simplex]],
                  carriers, first_id: VertexId) -> list[VertexId]:
    """Starring subdivision, applied in order to a simplex set and its
    `coface_index`, both edited in place: each carrier and its cofaces are
    replaced by cones over a new vertex, and each carrier must be in the
    state the earlier starrings left.  New vertices are numbered on from
    first_id, which must exceed every vertex (a new id that already has
    cofaces raises ValueError); returns their ids in order.  Where in the
    carrier each new vertex sits is the caller's business, which stores
    its data there.  Every starring of every stage is a call of this.

    Starring sigma at a replaces sigma * lk(sigma) by a * d(sigma) * lk(sigma):
    a cone over t - S for each coface t and nonempty S in sigma.  On a
    face-closed set these are the cones over the faces of cofaces that miss
    a vertex of sigma: such a face g is (g + sigma) - (sigma - g), once each.

    A starring reads only the carrier's cofaces, the intersection of its
    vertices' index entries.  So it is the same on any subset of a
    complex that holds every coface of every carrier.
    """
    new_ids = []
    for new_id, carrier in enumerate(carriers, first_id):
        if carrier not in simplices:
            raise ValueError(f"carrier {carrier} not in complex")
        if cofaces.get(new_id):
            raise ValueError(f"new vertex id {new_id} is already a vertex")
        removed = set.intersection(*(cofaces[v] for v in carrier))
        apex = (new_id,)  # exceeds every vertex, so it goes last
        if len(carrier) == 2:  # most carriers: slice u, w or both out of t
            u, w = carrier
            added = []
            for t in removed:
                i, j = t.index(u), t.index(w)
                added += (_sorted_simplex(t[:i] + t[i + 1:j] + t[j + 1:] + apex),
                          _sorted_simplex(t[:i] + t[i + 1:] + apex),
                          _sorted_simplex(t[:j] + t[j + 1:] + apex))
        else:
            added = [_sorted_simplex(tuple(v for v in t if v not in cut) + apex) for t in removed
                     for k in range(1, len(carrier) + 1) for cut in combinations(carrier, k)]
        for t in removed:
            for v in t:
                cofaces[v].discard(t)
        for t in added:
            for v in t:
                cofaces[v].add(t)
        simplices -= removed
        simplices.update(added)
        new_ids.append(new_id)
    return new_ids


def full_subcomplex(c: Complex, keep) -> Complex:
    """Simplices all of whose vertices are in `keep`, a vertex set."""
    keep = set(keep)
    return Complex(s for s in c.simplices if keep.issuperset(s.vertices))


def make_full(x: Complex, a: Complex) -> Complex:
    """Subdivide x so that a becomes a full subcomplex of the result.

    Every simplex of x that is not in a but has all vertices in V(a) is
    starred, in decreasing dimension.  New vertices fall outside V(a), so
    each starring removes one violation and introduces none.
    """
    if not a.simplices <= x.simplices:
        raise ValueError("a must be a subcomplex of x")
    a_verts = set(a.vertices)
    violations = sorted((s for s in x.simplices
                         if s not in a.simplices and set(s.vertices) <= a_verts),
                        key=lambda s: (-s.dim, s.vertices))
    simplices = set(x.simplices)
    star_at_point(simplices, coface_index(simplices), violations, (x.vertices or (-1,))[-1] + 1)
    return Complex(simplices)


def connected_components(c: Complex) -> list[set[VertexId]]:
    """Vertex sets of connected components, ordered by smallest member."""
    adjacency: dict[VertexId, set[VertexId]] = {v: set() for v in c.vertices}
    for e in c.k_simplices(1):
        u, v = e.vertices
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen: set[VertexId] = set()
    components = []
    for v in c.vertices:
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for w in adjacency[u]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        components.append(comp)
    components.sort(key=min)
    return components


@dataclass
class IntCochain:
    """Integer k-cochain; values are stored on the sorted orientation."""

    degree: int
    values: dict[Simplex, int] = field(default_factory=dict)

    def __post_init__(self):
        self.values = {s: v for s, v in self.values.items() if v != 0}
        for s in self.values:
            if not isinstance(s, Simplex):
                raise ValueError(f"cochain key {s!r} is not a Simplex")
            if s.dim != self.degree:
                raise ValueError(f"simplex {list(s.vertices)} has dim {s.dim}, "
                                 f"cochain degree {self.degree}")

    def __call__(self, s: Simplex) -> int:
        return self.values.get(s, 0)

def apply_coboundary(c: Complex, cochain: IntCochain) -> IntCochain:
    """delta(cochain) on the (degree+1)-simplices of c."""
    out: dict[Simplex, int] = {}
    for tau in c.k_simplices(cochain.degree + 1):
        acc = 0
        for i in range(len(tau)):  # a face as a slice: cochain lookups accept it
            acc += (-1 if i % 2 else 1) * cochain(tau[:i] + tau[i + 1:])
        if acc:
            out[tau] = acc
    return IntCochain(cochain.degree + 1, out)


def chain_boundary(c: Complex, chain: IntCochain) -> IntCochain:
    """Boundary of an integer chain (stored in the same container as cochains);
    that of a 0-chain is the empty (-1)-chain."""
    if chain.degree == 0:
        return IntCochain(-1)
    out: dict[Simplex, int] = {}
    for s, coeff in chain.values.items():
        for sign, face in s.boundary():
            out[face] = out.get(face, 0) + sign * coeff
    return IntCochain(chain.degree - 1, out)
