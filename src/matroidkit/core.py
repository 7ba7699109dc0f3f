"""Bit-packed matroids represented by their rank tables.

Ground sets are index ranges 0..n-1 with n <= 24; every subset is a Python
int bitmask.  The representation is the full 2^n rank table, a read-only
int8 numpy array indexed by subset mask.  A matroid given by a basis family
builds its table lazily.  A minor's table is a basic-index slice of the
parent's table viewed as shape (2,)*n (mask bit i on axis n-1-i), a dual's
is |X| - r(M) plus the parent's table reversed; their basis families are
derived from the table on first use.
Every structural query is a rank lookup, so scans over all subsets stay
cheap and exact.  Scalar lookups go through a zero-copy memoryview of the
table (`Matroid._ranks`), and the subset-lattice kernels (`validate`,
`circuits`) work on strided halves of the table, so no table-sized int64
array or Python list is built even at n = 24.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_GROUND = 24

_ALPHABET = "abcdefghijklmnopqrstuvwx"


class MatroidError(Exception):
    """Base class for every error raised by this package."""


class EmptyFamily(MatroidError):
    pass


class CardinalityMismatch(MatroidError):
    pass


class GroundSetExhausted(MatroidError):
    pass


class AxiomViolation(MatroidError):
    """Basis axioms fail; `witness` carries the offending sets."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# bitmask helpers (ElemSet = int)

def bit(i: int) -> int:
    return 1 << i


def mask_of(ids) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def elems(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def popcount(mask: int) -> int:
    return mask.bit_count()


def lex_key(mask: int) -> tuple[int, ...]:
    return tuple(elems(mask))


def submasks(mask: int):
    """Every submask of `mask`, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@functools.cache
def _popcount_table(n: int) -> np.ndarray:
    """Read-only |X| for every mask X < 2^n, shared per n."""
    pc = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):
        s = 1 << i
        pc[s:2 * s] = pc[:s] + 1
    pc.flags.writeable = False
    return pc


def rank_table(n: int, bases) -> np.ndarray:
    """Full 2^n rank table of the independence system spanned by `bases`.

    rank[X] = size of the largest subset of X contained in some member of
    `bases`.  Valid for arbitrary equicardinal families, which is what lets
    the axiom checker use it before matroidness is known.
    """
    size = 1 << n
    pc = _popcount_table(n)
    indep = np.zeros(size, dtype=bool)
    indep[np.fromiter(bases, dtype=np.int64)] = True
    for i in range(n):
        s = 1 << i
        v = indep.reshape(-1, 2 * s)
        v[:, :s] |= v[:, s:]
    g = np.where(indep, pc, np.int8(0))
    for i in range(n):
        s = 1 << i
        v = g.reshape(-1, 2 * s)
        np.maximum(v[:, s:], v[:, :s], out=v[:, s:])
    return g


# ---------------------------------------------------------------------------


def _check_family(n: int, bases) -> None:
    """Reject a sorted, non-empty family that has a member outside the
    ground set 0..n-1 or members of different sizes."""
    if bases[-1] >> n:
        raise ValueError(f"basis {bases[-1]:#x} not inside the ground set")
    sizes = set(map(int.bit_count, bases))
    if len(sizes) > 1:
        raise CardinalityMismatch(
            f"bases of sizes {min(sizes)} and {max(sizes)} in one family")


class Matroid:
    """Immutable matroid on n labelled elements, held as its rank table.

    The constructor takes a basis family and checks only that it is
    equicardinal and inside the ground set; use `validate` to check the
    basis axioms as well.  Minors and duals are built from the parent's
    table.  Derived data (rank table, bases, dual, circuits) is cached on
    first use; treat instances as read-only values.
    """

    def __init__(self, n: int, bases, labels=None):
        if not 1 <= n <= MAX_GROUND:
            raise ValueError(f"ground set size {n} outside 1..{MAX_GROUND}")
        bases = tuple(sorted(set(bases)))
        if not bases:
            raise EmptyFamily("no bases given")
        _check_family(n, bases)
        if labels is None:
            labels = tuple(_ALPHABET[:n])
        else:
            labels = tuple(labels)
            if len(labels) != n or len(set(labels)) != n:
                raise ValueError("labels must be unique, one per element")
        self._setup(n, popcount(bases[0]), labels, bases, None)

    @classmethod
    def _from_table(cls, tab: np.ndarray, labels) -> "Matroid":
        """Matroid whose rank table is `tab`, taken on trust."""
        m = cls.__new__(cls)
        m._setup(len(labels), int(tab[-1]), tuple(labels), None, tab)
        return m

    def _setup(self, n, rank, labels, bases, tab):
        self.n = n
        self.full = (1 << n) - 1
        self.rank = rank
        self.labels = labels
        self._bases = bases
        if tab is not None:
            tab.flags.writeable = False
        self._tab = tab
        self._tab_view = None
        self._dual = None
        self._circuits = None
        self._is3conn = None

    @property
    def bases(self) -> tuple[int, ...]:
        """Basis masks, ascending."""
        if self._bases is None:
            pc = _popcount_table(self.n)
            r = self.rank
            self._bases = tuple(
                np.flatnonzero((self._tab == r) & (pc == r)).tolist())
        return self._bases

    # -- identity ----------------------------------------------------------

    @property
    def key(self):
        return (self.n, self.bases)

    def __eq__(self, other):
        return (isinstance(other, Matroid)
                and self.key == other.key and self.labels == other.labels)

    def __hash__(self):
        return hash((self.key, self.labels))

    def __repr__(self):
        return f"Matroid(n={self.n}, r={self.rank}, bases={len(self.bases)})"

    # -- label helpers -----------------------------------------------------

    def id_of(self, label) -> int:
        if isinstance(label, int):
            if not 0 <= label < self.n:
                raise ValueError(f"element id {label} outside 0..{self.n - 1}")
            return label
        if label not in self.labels:
            raise ValueError(f"unknown element {label!r}")
        return self.labels.index(label)

    def set_of(self, items) -> int:
        """Mask from an iterable of element ids or labels."""
        return mask_of(self.id_of(x) for x in items)

    def label_list(self, mask: int) -> list[str]:
        return [self.labels[i] for i in elems(mask)]

    def fmt(self, mask: int) -> str:
        return "{" + ",".join(self.label_list(mask)) + "}"

    # -- rank calculus -----------------------------------------------------

    def table(self) -> np.ndarray:
        """The rank table, read-only: r(X) at index X."""
        if self._tab is None:
            tab = rank_table(self.n, self.bases)
            tab.flags.writeable = False
            self._tab = tab
        return self._tab

    def _ranks(self) -> memoryview:
        """Zero-copy view of the read-only rank table for scalar lookups.

        Indexing it with a mask gives r(X) as a Python int, without a
        per-lookup numpy scalar and without a Python-list copy of the table.
        """
        if self._tab_view is None:
            self._tab_view = self.table().data
        return self._tab_view

    def rank_of(self, x: int) -> int:
        return self._ranks()[x]

    def corank_of(self, x: int) -> int:
        # r*(X) = |X| - r(M) + r(E-X)
        return popcount(x) - self.rank + self._ranks()[self.full ^ x]

    def closure(self, x: int) -> int:
        t = self._ranks()
        rx = t[x]
        out = x
        rest = self.full ^ x
        for i in elems(rest):
            if t[x | (1 << i)] == rx:
                out |= 1 << i
        return out

    def coclosure(self, x: int) -> int:
        t = self._ranks()
        full = self.full
        out = x
        for i in elems(full ^ x):
            b = 1 << i
            # e in cl*(X) iff r(E-X-e) < r(E-X), for e outside X
            if t[full ^ x ^ b] < t[full ^ x]:
                out |= b
        return out

    def is_loop(self, e: int) -> bool:
        return self.rank_of(1 << e) == 0

    def is_coloop(self, e: int) -> bool:
        return self.rank_of(self.full ^ (1 << e)) < self.rank

    # -- duality and minors --------------------------------------------------

    def dual(self) -> "Matroid":
        if self._dual is None:
            # r*(X) = |X| - r(E) + r(E - X)
            tab = _popcount_table(self.n) - self.rank
            tab += self.table()[::-1]
            d = Matroid._from_table(tab, self.labels)
            d._dual = self
            self._dual = d
        return self._dual

    def delete(self, d: int) -> "Matroid":
        return self.minor(0, d)

    def contract(self, c: int) -> "Matroid":
        return self.minor(c, 0)

    def minor(self, c: int, d: int) -> "Matroid":
        """M/C\\D, sliced from this table: r(X) = r(X | C) - r(C).

        The table is viewed as shape (2,)*n, mask bit i on axis n-1-i, and
        indexed with 1 on contracted axes, 0 on deleted ones and a full
        slice on kept ones; a basic index, so no index array is built.
        """
        if c & d:
            raise ValueError("contract and delete sets overlap")
        if (c | d) == self.full:
            raise GroundSetExhausted("no elements left")
        if not c | d:
            return self
        n = self.n
        t = self.table()
        # the kept axes stay in order, so the slice is the table of the
        # compressed masks
        at = tuple(1 if c >> i & 1 else 0 if d >> i & 1 else slice(None)
                   for i in range(n - 1, -1, -1))
        tab = t.reshape((2,) * n)[at].reshape(-1) - t[c]
        return Matroid._from_table(
            tab, [lab for i, lab in enumerate(self.labels)
                  if not (c | d) >> i & 1])

    @staticmethod
    def compress(x: int, removed: int) -> int:
        """The mask, in any minor M/C\\D with C | D = `removed`, of the
        elements of X that the minor keeps: kept elements are renumbered in
        order, as in `minor`'s labels."""
        x &= ~removed
        for i in reversed(elems(removed)):
            low = (1 << i) - 1
            x = (x & low) | (x >> 1 & ~low)
        return x

    @staticmethod
    def expand(x: int, removed: int) -> int:
        """The inverse of `compress`: the mask in M of the elements that
        mask X names in a minor M/C\\D with C | D = `removed`."""
        for i in elems(removed):
            low = (1 << i) - 1
            x = (x & low) | (x & ~low) << 1
        return x

    def restrict(self, x: int) -> "Matroid":
        return self.delete(self.full ^ x)

    def reorder(self, labels) -> "Matroid":
        """The same matroid with element k renamed to the one labelled
        labels[k]: the axes of the table's (2,)*n view are permuted, so no
        basis is rebuilt."""
        n = self.n
        perm = [self.id_of(lab) for lab in labels]   # new id -> old id
        if sorted(perm) != list(range(n)):
            raise ValueError("labels must be unique, one per element")
        # new bit k lies on axis n-1-k and is old bit perm[k]
        axes = [n - 1 - perm[n - 1 - j] for j in range(n)]
        tab = self.table().reshape((2,) * n).transpose(axes).reshape(-1)
        return Matroid._from_table(tab, labels)

    # -- circuits ------------------------------------------------------------

    def circuits(self) -> tuple[int, ...]:
        if self._circuits is None:
            dep = self.table() < _popcount_table(self.n)
            mini = dep.copy()
            for i in range(self.n):
                s = 1 << i
                # a dependent X holding i is not minimal if X - i is dependent
                v = mini.reshape(-1, 2 * s)
                v[:, s:] &= ~dep.reshape(-1, 2 * s)[:, :s]
            self._circuits = tuple(np.flatnonzero(mini).tolist())
        return self._circuits

    def cocircuits(self) -> tuple[int, ...]:
        return self.dual().circuits()

    # -- simplification ------------------------------------------------------

    def simplify(self):
        """Drop loops and parallel duplicates, keeping the lowest id of each
        class.  Returns (matroid, map) where map sends each non-loop label to
        the label of its retained representative."""
        t = self._ranks()
        loops = mask_of(i for i in range(self.n) if t[1 << i] == 0)
        rep = {}
        seen = 0
        keep = 0
        for i in range(self.n):
            b = 1 << i
            if b & loops or b & seen:
                continue
            cls = self.closure(b) & ~loops
            seen |= cls
            keep |= b
            for j in elems(cls):
                rep[self.labels[j]] = self.labels[i]
        return self.delete(self.full ^ keep), rep

    def cosimplify(self):
        m, rep = self.dual().simplify()
        return m.dual(), rep


# ---------------------------------------------------------------------------


def validate(bases, n: int, labels=None) -> Matroid:
    """Check the basis axioms exhaustively and return the matroid.

    Equicardinality is checked by the constructor.  Exchange is checked
    through the equivalent purity criterion: for every independent set I
    that cannot be extended inside A = E - (ext(I) - I), the rank of A must
    equal |I|.  This is O(n * 2^n) vectorised, against O(|B|^2) for
    pairwise exchange.  The returned matroid keeps the table built here.

    Per element i the masks without and with i are compared as the two
    strided halves of the table, so the only table-sized arrays are the
    int32 masks A and a few int8/bool tables.
    """
    m = Matroid(n, bases, labels)
    tab = m.table()
    pc = _popcount_table(n)
    # ext[X] collects the elements i outside X with r(X + i) = r(X) + 1
    ext = np.zeros(1 << n, dtype=np.int32)
    for i in range(n):
        s = 1 << i
        v = tab.reshape(-1, 2 * s)
        e = ext.reshape(-1, 2 * s)[:, :s]
        np.bitwise_or(e, s, out=e, where=v[:, s:] == v[:, :s] + 1)
    ext ^= m.full  # now A = E - ext(X)
    bad = (tab == pc) & (tab[ext] != pc)
    if bad.any():
        i_mask = int(bad.argmax())
        a_mask = int(ext[i_mask])
        witness = _exchange_witness(m.bases, i_mask, a_mask)
        raise AxiomViolation(
            f"exchange fails: independent set {sorted(elems(i_mask))} is "
            f"maximal in {sorted(elems(a_mask))} but rank there is "
            f"{int(tab[a_mask])}", witness)
    return m


def _exchange_witness(bases, i_mask, a_mask):
    """Try to upgrade a purity failure to a literal exchange triple."""
    bset = set(bases)
    for b1 in bases:
        for b2 in bases:
            for x in elems(b1 & ~b2):
                if not any((b1 ^ (1 << x)) | (1 << y) in bset
                           for y in elems(b2 & ~b1)):
                    return (b1, b2, x)
    return (i_mask, a_mask, None)


# ---------------------------------------------------------------------------
# isomorphism


def _element_profile(m: Matroid, use_circuits: bool):
    deg = [0] * m.n
    for b in m.bases:
        for i in elems(b):
            deg[i] += 1
    if not use_circuits:
        return [(d,) for d in deg]
    profs = [[] for _ in range(m.n)]
    for c in m.circuits():
        k = popcount(c)
        for i in elems(c):
            profs[i].append(k)
    return [(deg[i], tuple(sorted(profs[i]))) for i in range(m.n)]


def is_isomorphic(m1: Matroid, m2: Matroid):
    """Search for a ground-set bijection carrying bases onto bases.

    Returns the mapping as a list (image of each id of m1) or None.
    Pruned by rank, basis count, basis-degree profile and, on small ground
    sets, the circuit-size profile per element.
    """
    if (m1.n, m1.rank, len(m1.bases)) != (m2.n, m2.rank, len(m2.bases)):
        return None
    n = m1.n
    if m1.rank == 0:
        return list(range(n))
    use_circ = n <= 12
    p1 = _element_profile(m1, use_circ)
    p2 = _element_profile(m2, use_circ)
    if sorted(p1) != sorted(p2):
        return None
    cands = [[j for j in range(n) if p2[j] == p1[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(cands[i]), i))
    pos = {e: k for k, e in enumerate(order)}
    done_at = [[] for _ in range(n)]
    for b in m1.bases:
        done_at[max(pos[i] for i in elems(b))].append(b)
    bset2 = set(m2.bases)
    t1, t2 = m1._ranks(), m2._ranks()
    img = [-1] * n
    used = [False] * n

    def place(k: int) -> bool:
        if k == n:
            return True
        e = order[k]
        be = 1 << e
        for f in cands[e]:
            if used[f]:
                continue
            bf = 1 << f
            ok = True
            for e0 in order[:k]:
                if t1[be | (1 << e0)] != t2[bf | (1 << img[e0])]:
                    ok = False
                    break
            if not ok:
                continue
            img[e] = f
            used[f] = True
            if all(mask_of(img[i] for i in elems(b)) in bset2
                   for b in done_at[k]) and place(k + 1):
                return True
            used[f] = False
            img[e] = -1
        return False

    if place(0):
        return list(img)
    return None
