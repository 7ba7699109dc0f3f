"""Bit-packed matroids represented by their rank tables.

Ground sets are index ranges 0..n-1 with n <= 24; every subset is a Python
int bitmask.  The representation is the full 2^n rank table, a read-only
int8 numpy array indexed by subset mask.  A matroid given by a basis family
builds its table lazily.  `_pinned` is the one reader of the table's
(2,)*n layout (mask bit i on axis n-1-i; `reorder` only permutes its
axes): its view at the masks that hold some elements and miss others is a
minor's table, a term of a delta-wye exchange, or a term of the lambda of
M/C\\D.  A dual's table is |X| - r(M) plus the parent's table reversed;
the basis families of both are derived from the table on first use.
Every structural query is a rank lookup, so scans over all subsets stay
cheap and exact.  Scalar lookups go through a zero-copy memoryview of the
table (`Matroid._ranks`), and the subset-lattice kernels (`rank_table`,
`circuits`) work on strided views of the table.  Every scan walks the
table in blocks of up to 2^16 masks (`_blocks`), |X| from one read-only
2^16 table, `_PC16`, plus the popcount of the bits above 16, so at n = 24
a kernel allocates nothing table-sized beside the table it returns, and
no table outlives its matroid in a cache or a reference cycle: a matroid
holds its dual, the dual only a weak reference back.  Queries about the
sets of one size k (the bases, `validate`'s independent (r-1)-sets)
gather from the table at the shared, ascending int32 mask array
`_masks_of_size(n, k)`, built from the 2^16 table without a pass over
all 2^n masks; `_lex_masks(n, k)` lists the same sets in lex order.

Each subset-lattice kernel is a pass along every axis of the lattice that
pairs X without i with X plus i, and every such pass goes through
`_halves`.  On a short axis (bit i below 4) the two halves, taken as
blocks, have rows of only 2^i elements, and a ufunc over them runs one
tiny inner loop per row; so there `_halves` hands out one pair of
strided columns per offset instead, which `circuits`, block by block,
and the word axes 0-3 of the OR pass below take.  The OR pass of
`rank_table`, marking every subset of a member (`_packed_down_closed`),
runs on the table packed 64 masks to a word: the six axes inside a word
take one shift and mask each, and the others are passes over whole words.
`rank_table` reads the max passes on the four lowest axes from `_low16`,
one row per packed 16-bit word of flags, and runs the others one L2-sized
block of 2^20 masks at a time, each gathered in transposed 256 KiB chunks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import weakref
import zlib

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
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
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
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _popcounts16() -> np.ndarray:
    # doubling in place, so no 2^16 temporary is made at import
    pc = np.zeros(1 << 16, dtype=np.int8)
    for i in range(16):
        pc[1 << i:2 << i] = pc[:1 << i] + 1
    pc.flags.writeable = False
    return pc


# |X| for every mask X < 2^16, read-only; `_blocks` extends it to a table
_PC16 = _popcounts16()


def _blocks(n: int):
    """(X0, |X| block) for each block of up to 2^16 masks X < 2^n from X0
    on, in order; |X| is `_PC16` plus the popcount of X0, so no
    table-sized popcount array is built."""
    step = min(1 << n, _PC16.size)
    for s in range(0, 1 << n, step):
        yield s, _PC16[:step] + s.bit_count() if s else _PC16[:step]


@functools.cache
def _masks_of_size(n: int, k: int) -> np.ndarray:
    """Read-only ascending int32 masks X < 2^n with |X| = k, shared per
    (n, k).  X splits into a high part h and a low part l of up to 16 bits,
    and the l for each h are the masks of `_PC16` with k - |h| bits, so
    nothing is built over all 2^n masks."""
    low = min(n, 16)
    # |h| runs from 0 to n - low, so only these sizes of l are needed
    by_size = {j: np.flatnonzero(_PC16[:1 << low] == j)
               for j in range(max(k - (n - low), 0), min(k, low) + 1)}
    masks = np.empty(math.comb(n, k) if k >= 0 else 0, dtype=np.int32)
    at = 0
    for h in range(1 << (n - low)):
        part = by_size.get(k - h.bit_count())
        if part is not None:
            np.bitwise_or(part, h << low, out=masks[at:at + part.size])
            at += part.size
    masks.flags.writeable = False
    return masks


@functools.cache
def _lex_masks(n: int, k: int) -> np.ndarray:
    """Read-only int32 masks of the k-subsets of range(n) in lex order,
    shared per (n, k).  Lex order is the descending order of bit-reversed
    masks, so these are `_masks_of_size`'s masks, built uncached so that
    no second copy is kept, in reverse and each bit-reversed."""
    rev = _masks_of_size.__wrapped__(n, k)[::-1]
    masks = np.zeros_like(rev)
    for i in range(n):
        masks |= (rev >> i & 1) << (n - 1 - i)
    masks.flags.writeable = False
    return masks


# Below this half-width a pass goes column by column: numpy puts the
# size-2^i axis of a block innermost, so each ufunc would run 2^n / 2^(i+1)
# inner loops of 2^i elements, which costs far more than the arithmetic.
_COLS = 16


def _halves(a: np.ndarray, i: int):
    """Pairs of views (X without i, X with i) of the flat 2^n table `a`.

    Together the pairs cover every mask once: the first view of a pair
    holds the X that miss bit i, the second the X + i at the same
    positions.  For 2^i < _COLS they are 1-D columns, one pair per offset
    b < 2^i (each a stride of 2^(i+1) entries); otherwise one pair of
    (2^n / 2^(i+1), 2^i) blocks.  Only views are made, so writing to one
    writes to `a`.
    """
    s = 1 << i
    v = a.reshape(-1, 2 * s)
    if s < _COLS:
        for b in range(s):
            yield v[:, b], v[:, s + b]
    else:
        yield v[:, :s], v[:, s:]


def _up_passes(a: np.ndarray, axes, op=np.maximum) -> None:
    """For each axis i of `axes`: op(X + i, X) into X + i in the table."""
    for i in axes:
        for lo, hi in _halves(a, i):
            op(hi, lo, out=hi)


def _pinned(t: np.ndarray, ones: int, zeros: int) -> np.ndarray:
    """The view of the 2^n table `t` at the masks that hold every bit of
    `ones` and no bit of `zeros`, one axis of length 2 per other element,
    in mask order: a basic index of t as shape (2,)*n, mask bit i on axis
    n-1-i, so nothing is copied; `...` keeps a fully pinned index a 0-d
    view."""
    n = t.size.bit_length() - 1
    at = [slice(None)] * n
    for i in elems(ones | zeros):
        at[n - 1 - i] = ones >> i & 1
    return t.reshape((2,) * n)[(*at, ...)]


# _LOWER[i] keeps the bits of a 64-bit word at the positions p with bit i
# of p clear: the masks X without i inside a word of 64 masks.
_LOWER = np.array([0x5555555555555555, 0x3333333333333333,
                   0x0F0F0F0F0F0F0F0F, 0x00FF00FF00FF00FF,
                   0x0000FFFF0000FFFF, 0x00000000FFFFFFFF], dtype=np.uint64)


def _packed_down_closed(n: int, masks) -> np.ndarray:
    """Whether each X < 2^n lies inside some member of `masks`, packed 64
    masks to a uint64 word: X at bit X % 64 of word X // 64, at least one.

    The OR pass that marks every subset of a member runs on the packed
    words.  On the axes i < 6 both halves share a word, so one shift and
    `_LOWER[i]` pass the word's X + i bits down to its X bits; on the axes
    i >= 6 the halves are whole words, paired by `_halves` on axis i - 6.
    The flags are padded to at least one word, so every n takes the same
    path.
    """
    flags = np.zeros(max(1 << n, 64), dtype=bool)
    flags[np.fromiter(masks, dtype=np.int64)] = True
    w = np.packbits(flags, bitorder="little").view("<u8")
    del flags  # so the caller's table takes its place
    for i in range(min(n, 6)):
        w |= w >> np.uint64(1 << i) & _LOWER[i]
    for i in range(6, n):
        for lo, hi in _halves(w, i - 6):
            lo |= hi
    return w


# The entry of `_low16` with no L' to take the largest |L'| over; it stays
# negative, so below every rank, when a size |H| <= MAX_GROUND - 4 is added
_NONE = -MAX_GROUND


@functools.cache
def _low16() -> np.ndarray:
    """Read-only (2^16, 16) int8 table: LOW[w, L] is the largest |L'| over
    the L' inside L (L, L' < 16) whose bit is set in the 16-bit word w, and
    _NONE when there is none.

    It comes from the 256-row table Q of the three lowest axes: Q[v, l] is
    the largest |l'| over the l' inside l (l, l' < 8) whose bit is set in
    the byte v, or _NONE, from three max passes over 256 x 8 entries.  A
    word w is the byte lo = w & 255 for the L' without bit 3 and the byte
    hi = w >> 8 for the L' = 8 + l' with it, so LOW[w, l] = Q[lo, l] and
    LOW[w, 8 + l] = max(Q[lo, l], Q[hi, l] + 1): one broadcast `maximum`
    of a 256-row table by lo and one by hi, and no pass over LOW's rows.
    """
    v = np.arange(256)[:, None]
    q = np.where(v >> np.arange(8) & 1, _PC16[:8], np.int8(_NONE))
    _up_passes(q.reshape(-1), range(3))
    by_lo = np.concatenate([q, q], axis=1)
    by_hi = np.concatenate([np.full_like(q, _NONE),
                            np.where(q < 0, q, q + 1)], axis=1)
    low = np.maximum(by_lo, by_hi[:, None, :]).reshape(1 << 16, 16)
    low.flags.writeable = False
    return low


# rank_table runs the max passes on the axes below _BLOCK_AXES one block of
# 2^_BLOCK_AXES masks (1 MiB) at a time, so that each block stays in the L2
# cache while its passes run, and gathers a block from _low16 in chunks of
# this many rows of 16 masks (256 KiB), transposed so that the passes on the
# axes of the rows' lowest bits pair runs of whole rows
_GATHER_ROWS = 1 << 14
_BLOCK_AXES = 20


@functools.cache
def _chunk_sizes(mid: int, high: int) -> np.ndarray:
    """Read-only |l| + |h| at each entry (l, h, L) of a transposed chunk."""
    sizes = (_PC16[:1 << mid, None, None] + _PC16[:high, None]).repeat(16, 2)
    sizes.flags.writeable = False
    return sizes


def rank_table(n: int, bases) -> np.ndarray:
    """Full 2^n rank table of the independence system spanned by `bases`.

    rank[X] = size of the largest subset of X contained in some member of
    `bases`.  Valid for arbitrary non-empty equicardinal families, which is
    what lets the axiom checker use it before matroidness is known.  The
    table is the (max, +) zeta transform over the subset lattice of |I| on
    the independent sets I (every subset of a member, from the packed OR
    pass of `_packed_down_closed`) and 0 elsewhere: one max pass per axis
    carries |I| up to each superset.

    No max pass runs on the four lowest axes.  Viewed as uint16, the packed
    flags give for each H < 2^n / 16 the word u[H] of the 16 masks
    16 H + L, and after the passes on axes 0-3 the table would hold at
    16 H + L the largest |16 H + L'| over the independent 16 H + L' with L'
    inside L, or 0 if there is none.  Independence is down-closed, so if H
    is independent, every such L' is one whose bit is set in u[H], and the
    entry is |H| + `_low16()`[u[H], L]; if not, u[H] = 0, and the table
    takes |H| + _NONE < 0 there instead of 0.  The passes on the other axes
    lift each entry to the largest over its subsets, and the empty set is
    independent, so that makes no difference.  The passes commute, so
    each block of 2^k rows H = (h, l), l the mid = min(k // 2, 8) lowest
    bits, first takes those on axes 4 to 3 + mid in chunks of
    `_GATHER_ROWS` rows gathered with l outermost, then those on its other
    axes; axes 20 and up run over the whole table.
    """
    u = _packed_down_closed(n, bases).view("<u2")
    g = np.empty(u.size * 16, dtype=np.int8)
    block = min(u.size, 1 << _BLOCK_AXES - 4)
    mid = min(block.bit_length() - 1 >> 1, 8)
    high = min(block, _GATHER_ROWS) >> mid
    chunk = np.empty((1 << mid, high, 16), dtype=np.int8)
    across = range(chunk.size.bit_length() - 1)[-mid:]  # axes 4 to 3 + mid
    rows = g.view("V16").reshape(-1, 1 << mid)  # g's rows H as (h, l)
    for b in range(0, u.size, block):
        for h in range(b >> mid, b + block >> mid, high):
            # "clip" (the words are in range anyway), as the default mode
            # takes into a buffer and then copies it to `out`
            np.take(_low16(), u.reshape(-1, 1 << mid)[h:h + high].T, axis=0,
                    out=chunk, mode="clip")
            chunk += _chunk_sizes(mid, high)  # |H| = |l| + |h'| + |h|
            chunk += h.bit_count()
            _up_passes(chunk.reshape(-1), across)
            rows[h:h + high] = chunk.view("V16")[..., 0].T
        _up_passes(g[b << 4:b + block << 4],
                   range(4 + mid, min(n, _BLOCK_AXES)))
    _up_passes(g, range(_BLOCK_AXES, n))
    return g[:1 << n]


# ---------------------------------------------------------------------------


def _check_family(n: int, bases) -> None:
    """Reject a sorted, non-empty family that has a member outside the
    ground set 0..n-1 (its first if negative, else its last) or members
    of different sizes."""
    for b in bases[0], bases[-1]:
        if b >> n:  # a negative mask shifts to -1
            raise ValueError(f"basis {b:#x} not inside the ground set")
    sizes = set(map(int.bit_count, bases))
    if len(sizes) > 1:
        raise CardinalityMismatch(
            f"bases of sizes {min(sizes)} and {max(sizes)} in one family")


def _minimal_dependent(n: int, independent) -> tuple[int, ...]:
    """The minimal dependent masks X < 2^n, ascending, where
    independent(X0, |X| block) flags the independent X of each block of
    `_blocks`.  For the axes i inside a block, X - i lies in X's block,
    paired by `_halves`; for a higher bit i of X0, in the block from
    X0 - 2^i on, one size smaller.  So nothing table-sized is built."""
    out = []
    for s, size in _blocks(n):
        ind = independent(s, size)
        mini = ~ind
        for i in range(min(n, 16)):
            for (_, hi), (lo, _) in zip(_halves(mini, i), _halves(ind, i)):
                hi &= lo
        for i in range(16, n):
            if s >> i & 1:
                mini &= independent(s ^ 1 << i, size - 1)
        out += (np.flatnonzero(mini) + s).tolist()
    return tuple(out)


class _TableKey:
    """A rank table as a key, as fine as the basis family: it hashes by a
    CRC of the table and compares two tables, unless they are one array,
    as bytes, one 2^16-entry block at a time up to the first block that
    differs, so it copies at most two blocks (the table at n = 24 is
    16 MiB).  It keeps the table."""

    __slots__ = ("tab", "crc")

    def __init__(self, tab: np.ndarray):
        self.tab = tab
        self.crc = zlib.crc32(tab)

    def __hash__(self):
        return self.crc

    def __eq__(self, other):
        a, b = self.tab, other.tab
        return self.crc == other.crc and (a is b or a.size == b.size and all(
            a[s:s + _PC16.size].tobytes() == b[s:s + _PC16.size].tobytes()
            for s in range(0, a.size, _PC16.size)))


class Matroid:
    """Immutable matroid on n labelled elements, held as its rank table.

    The constructor takes a basis family and checks only that it is
    equicardinal and inside the ground set; use `validate` to check the
    basis axioms as well.  Minors and duals are built from the parent's
    table.  Two matroids are equal when their labels and rank tables are
    (`key`).  Derived data (rank table, key, bases, dual, quads, basis
    counts) is cached on first use; treat instances as read-only values.
    """

    def __init__(self, n: int, bases, labels=None):
        if not 1 <= n <= MAX_GROUND:
            raise ValueError(f"ground set size {n} outside 1..{MAX_GROUND}")
        # repeats are dropped after the sort, as a hash set of U(12, 24)'s
        # 2.7 M bases would outweigh the bases themselves
        bases = sorted(bases)
        bases = tuple(itertools.compress(
            bases, map(operator.ne, bases, itertools.chain([None], bases))))
        if not bases:
            raise EmptyFamily("no bases given")
        _check_family(n, bases)
        if labels is None:
            labels = tuple(_ALPHABET[:n])
        else:
            labels = tuple(labels)
            if len(labels) != n or len(set(labels)) != n:
                raise ValueError("labels must be unique, one per element")
        self._setup(n, popcount(bases[0]), labels, None)
        self.bases = bases

    @classmethod
    def _from_table(cls, tab: np.ndarray, labels) -> "Matroid":
        """Matroid whose rank table is `tab`, taken on trust."""
        m = cls.__new__(cls)
        m._setup(len(labels), int(tab[-1]), tuple(labels), tab)
        return m

    def _setup(self, n, rank, labels, tab):
        self.n = n
        self.full = (1 << n) - 1
        self.rank = rank
        self.labels = labels
        if tab is not None:
            tab.flags.writeable = False
        self._tab = tab
        self._tab_view = None
        self._dual = None
        self._quads = None
        self._counts = None
        self._connected = {}

    @functools.cached_property
    def bases(self) -> tuple[int, ...]:
        """Basis masks, ascending."""
        sets = _masks_of_size(self.n, self.rank)
        return tuple(sets[self.table()[sets] == self.rank].tolist())

    # -- identity ----------------------------------------------------------

    @functools.cached_property
    def key(self) -> _TableKey:
        """The rank table as a key: the identity behind `==`, `hash`, the
        minor memo and the exchange stage's repeat match."""
        return _TableKey(self.table())

    def __eq__(self, other):
        return (isinstance(other, Matroid)
                and self.labels == other.labels and self.key == other.key)

    def __hash__(self):
        return hash(self.key)

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

    def basis_counts(self) -> np.ndarray:
        """h[Y], the number of bases inside Y, for every mask Y, as a
        read-only uint16 table, cached.

        The zeta transform of the basis indicator: one add pass per axis,
        through `_halves`, carries each basis up to every superset.  The
        uint16 sums wrap, so each entry is exact modulo 2^16, and exact
        whenever |B(M)| < 2^16; at n = 24 the table is two rank tables'
        worth of memory.
        """
        if self._counts is None:
            t = self.table()
            sets = _masks_of_size(self.n, self.rank)
            h = np.zeros(t.size, dtype=np.uint16)
            h[sets] = t[sets] == self.rank
            _up_passes(h, range(self.n), np.add)
            h.flags.writeable = False
            self._counts = h
        return self._counts

    @functools.cached_property
    def _score_row(self) -> tuple[int, np.ndarray]:
        """|B(M)| and the column of sorted basis degrees, modulo 2^16."""
        h = self.basis_counts()
        deg = h[-1] - h[self.full ^ 1 << np.arange(self.n)]
        return int(h[-1]), np.sort(deg)[:, None]

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
        out = x
        for i in elems(self.full ^ x):
            if t[x | 1 << i] == t[x]:
                out |= 1 << i
        return out

    def coclosure(self, x: int) -> int:
        t = self._ranks()
        out = x
        for i in elems(self.full ^ x):
            # e in cl*(X) iff r(E-X-e) < r(E-X), for e outside X
            if t[self.full ^ x ^ 1 << i] < t[self.full ^ x]:
                out |= 1 << i
        return out

    def is_loop(self, e: int) -> bool:
        return self.rank_of(1 << e) == 0

    def is_coloop(self, e: int) -> bool:
        return self.rank_of(self.full ^ (1 << e)) < self.rank

    # -- duality and minors --------------------------------------------------

    def dual(self) -> "Matroid":
        """M*, cached.  M holds its dual and the dual only a weak reference
        back, so neither table outlives M's last reference in a cycle; a
        dual whose M has gone builds a new one on request."""
        d = self._dual
        if isinstance(d, weakref.ref):
            d = d()
        if d is None:
            # r*(X) = |X| - r(E) + r(E - X)
            tab = self.table()[::-1] - self.rank
            for s, size in _blocks(self.n):
                tab[s:s + size.size] += size
            d = Matroid._from_table(tab, self.labels)
            d._dual = weakref.ref(self)
            self._dual = d
        return d

    def delete(self, d: int) -> "Matroid":
        return self.minor(0, d)

    def contract(self, c: int) -> "Matroid":
        return self.minor(c, 0)

    def minor(self, c: int, d: int) -> "Matroid":
        """M/C\\D, sliced from this table: r(X) = r(X | C) - r(C), the
        `_pinned` view with C's bits set and D's clear."""
        if (c | d) >> self.n:  # a negative mask shifts to -1
            raise ValueError("contract or delete set outside the ground set")
        if c & d:
            raise ValueError("contract and delete sets overlap")
        if (c | d) == self.full:
            raise GroundSetExhausted("no elements left")
        if not c | d:
            return self
        t = self.table()
        labels = [lab for i, lab in enumerate(self.labels)
                  if not (c | d) >> i & 1]
        # flatten's copy owns its data, so the subtraction runs in place
        # and the minor costs one table-sized allocation; it copies runs
        # of 2^j entries, j the lowest removed element, as single items
        j = ((c | d) & -(c | d)).bit_length() - 1
        runs = t.view(f"V{1 << j}")
        tab = _pinned(runs, c >> j, d >> j).flatten().view(t.dtype)
        tab -= t[c]
        return Matroid._from_table(tab, labels)

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
        """Circuit masks, ascending: the minimal X with r(X) < |X|."""
        t = self.table()
        return _minimal_dependent(
            self.n, lambda s, size: t[s:s + size.size] >= size)

    def cocircuits(self) -> tuple[int, ...]:
        """Cocircuit masks, ascending, from M's own table, so no dual is
        built: r*(X) = |X| - r + r(E - X) < |X| exactly when r(E - X) < r."""
        rev = self.table()[::-1]
        return _minimal_dependent(
            self.n, lambda s, size: rev[s:s + size.size] == self.rank)

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

    Equicardinality is checked by the constructor.  Exchange fails at
    (B1, B2, x) exactly when the independent (r-1)-set I = B1 - x spans a
    basis: its closure cl(I), I plus every y with I + y dependent, has
    rank r.  So only the independent (r-1)-sets are checked, with one
    gather per element over them; beyond building the table, which the
    returned matroid keeps, nothing runs over all 2^n masks.  For the first
    failing I (in mask order) the witness is (B1, B2, x): the least basis
    B1 holding I, the least basis B2 inside cl(I), and x = B1 - I.
    """
    m = Matroid(n, bases, labels)
    r = m.rank
    if r == 0:
        return m
    tab = m.table()
    sets = _masks_of_size(n, r - 1)
    ind = sets[tab[sets] == r - 1]
    # ext[I] collects the elements i with I + i a basis
    ext = np.zeros_like(ind)
    for i in range(n):
        np.bitwise_or(ext, 1 << i, out=ext, where=tab[ind | 1 << i] == r)
    bad = np.flatnonzero(tab[m.full ^ ext] != r - 1)
    if bad.size:
        i_mask, e = int(ind[bad[0]]), int(ext[bad[0]])
        cl = m.full ^ e
        x = (e & -e).bit_length() - 1
        r_sets = _masks_of_size(n, r)
        inside = r_sets[r_sets & ~cl == 0]
        b2 = int(inside[tab[inside] == r][0])
        raise AxiomViolation(
            f"exchange fails: independent set {sorted(elems(i_mask))} is "
            f"maximal in {sorted(elems(cl))} but rank there is {r}",
            (i_mask | 1 << x, b2, x))
    return m


# ---------------------------------------------------------------------------
# isomorphism


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser, a fixed bijection of uint64 (wrapping)."""
    x = (x ^ x >> np.uint64(30)) * np.uint64(0xbf58476d1ce4e5b9)
    x = (x ^ x >> np.uint64(27)) * np.uint64(0x94d049bb133111eb)
    return x ^ x >> np.uint64(31)


_HUES = _mix(np.arange(MAX_GROUND, dtype=np.uint64))  # mixed colour ids


def is_isomorphic(m1: Matroid, m2: Matroid):
    """Search for a ground-set bijection carrying bases onto bases.

    Returns the mapping as a list (image of each id of m1) or None, by
    individualise-and-refine (McKay and Piperno, "Practical graph
    isomorphism, II", 2014) on one family of r-sets on both sides: the
    bases, or the non-basis r-sets when fewer (U(12, 24) has none).  A set
    hashes to the sum of its elements' mixed colours; an element keeps its
    colour in the high bits, so no cell merges, plus its sets' hash sum.
    These are isomorphism-invariant and computed alike on both sides, so a
    collision only leaves a cell coarser; each leaf is checked on the table.
    """
    n, r = m1.n, m1.rank
    if (n, r) != (m2.n, m2.rank):
        return None
    sets = _masks_of_size(n, r)
    is_b = np.stack([m.table()[sets] == r for m in (m1, m2)])
    count = is_b.sum(1)
    if count[0] != count[1]:
        return None
    want = 2 * count[0] <= len(sets)
    fam = np.stack([sets[row == want] for row in is_b]).astype(np.uint64)
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    inc = fam[..., None] >> np.arange(n, dtype=np.uint64) & np.uint64(1)
    t2 = m2.table()

    def search(col, k):
        while True:  # refine the k colours of both sides until stable
            h = _mix(inc @ _HUES[col][..., None]).transpose(0, 2, 1) @ inc
            u, col = np.unique(col << 40 | (h[:, 0] >> np.uint64(24)).view(
                np.int64), return_inverse=True)
            col = col.reshape(2, n)
            if not np.array_equal(*np.sort(col, axis=1)):
                return None
            k, old = len(u), k
            if k in (old, n):
                break
        if k == n:
            img = np.empty(n, dtype=np.int64)
            img[np.argsort(col[0])] = np.argsort(col[1])
            ok = (t2[inc[0] @ bits[img]] == r) == want
            return img.tolist() if ok.all() else None
        # try m1's first element of its smallest non-singleton cell on each
        # element of that cell on m2's side
        size = np.bincount(col[0])
        cell = np.argmin(np.where(size > 1, size, n))
        e = np.flatnonzero(col[0] == cell)[0]
        for f in np.flatnonzero(col[1] == cell):
            nxt = col.copy()
            nxt[0, e] = nxt[1, f] = k
            found = search(nxt, k + 1)
            if found is not None:
                return found
        return None

    found = search(np.zeros((2, n), dtype=np.int64), 1)
    # `search` calls itself through its closure; unbinding it breaks that
    # cycle, which would otherwise hold m2's table until the cyclic gc
    del search
    return found
