"""Selection-batch assembly, semi-hard cross-domain triplet mining, and
minibatch scheduling.

A selection batch of N pairs is flattened to 2N images: index i in [0, N) is
the selfie of batch slot i and index N + i its document. Each slot yields up
to two triplets, one per anchor domain; the positive is the anchor's other
view and the negative is drawn uniformly from the slot's semi-hard candidate
set (same domain as the positive, different identity, closer to the anchor
than D_ap^2 + margin). Slots whose candidate set is empty for an orientation
yield no triplet for it, so a batch produces at most 2N triplets. Triplets
travel as three int64 arrays ``(anchor, positive, negative)`` of flattened
indices; an anchor below N is a selfie anchor.

The miner is a row-blocked kernel. Each block of ``MINE_BLOCK_ROWS`` selfies
gets only its raw product with every document, ``g = selfie[r0:r1] @
doc.T``, from the same matmul call and shape as the distance block of the
canonical kernel ``cross_squared_distances``, so every product is the one
inside that block. The slots' limits D_ap^2 + margin come from the kernel on
the 128 x 128 diagonal blocks. ``core.product_cuts`` brackets each limit's
product cut in closed form once per round: per selfie anchor (row) at its
own norm and the documents' extreme norms, and per document anchor
(column) at its own norm and the selfies' extreme norms. ``core.decide_below``, the rule
``evaluation.far_counts`` counts FAR by, decides each orientation's mask
from them: a cell above its ``sure`` cut is a candidate and a cell at or
below its ``maybe`` cut is not; only the cells between the two (usually
none) get the kernel's arithmetic on their own product and norms. So both
orientations' masks are exactly those of ``d < limit`` on the distance
blocks, with none of the kernel's elementwise passes.

The blocks run on ``worker_threads`` threads (one per eight blocks, up to
the cores BLAS leaves free), each with a product buffer and a mask that the
calling thread allocates, and at most one block per thread runs ahead of
the calling thread. Workers pack the selfie anchors' rows to bits and the
document anchors' columns to bytes; the calling thread takes the blocks in
block order, picks each block's selfie anchors, and puts its columns into an
N x ceil(N/64)*8-byte bit matrix, whose rows it picks after the last block.
A pick reads per-row candidate counts and the k-th set bit from word
popcounts and byte lookup tables. No N x N float matrix, boolean mask,
transposed copy or N^2 nonzero scan is built: memory is O(N *
MINE_BLOCK_ROWS) floats per thread plus N^2/8 bytes.

Negative draws consume randomness in a fixed order (one uniform per slot
with candidates: all selfie-anchor slots in batch order, then all doc-anchor
slots) on the calling thread, so mining is reproducible no matter how the
products are blocked or how many threads compute them. Embeddings must be
finite.
"""
from __future__ import annotations

import collections
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    Dataset,
    cross_squared_distances,
    decide_below,
    product_cuts,
    same_identity_pairs,
    squared_norms,
    worker_threads,
)
from .model import EmbeddingNetwork
from .sampling import SamplerSpec, choose_homogeneous_group, probabilities

# Selfie rows per mining block. A multiple of 8, so every block but the last
# fills whole bytes of the doc-anchor bit matrix.
MINE_BLOCK_ROWS = 128

# Doc-anchor rows per pick: one ``_pick_packed`` call draws for the doc
# anchors of eight blocks, after the last block, and holds a cumulative count
# per word of their rows.
_PICK_ROWS = 8 * MINE_BLOCK_ROWS

# Blocks per mining thread. A thread's start-up and the hand-off of each
# block cost about as much as a few blocks of a small batch, so a batch gets
# a second thread only from 16 blocks (N > 1920) on.
_BLOCKS_PER_THREAD = 8

# Byte tables for masks packed in little bit order (bit t of byte b is column
# 8b + t): _POPCOUNT[v] counts the set bits of v and _SELECT[v, r] is the
# position of its r-th set bit.
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
_POPCOUNT = _BITS.sum(axis=1).astype(np.uint8)
_SELECT = np.argsort(1 - _BITS, axis=1, kind="stable").astype(np.uint8)
_BIT_WEIGHTS = np.left_shift(1, np.arange(8)).astype(np.uint8)


def _byte_table_popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 word, from the byte table."""
    return _POPCOUNT.take(words.view(np.uint8)).reshape(*words.shape, 8).sum(axis=-1)


# numpy has bitwise_count from 2.0 on.
_word_popcounts = getattr(np, "bitwise_count", _byte_table_popcounts)


def _packed_width(n: int) -> int:
    """Bytes per row of a packed mask of n columns, padded to whole uint64
    words; the padding bits stay clear."""
    return -(-n // 64) * 8


Triplets = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class MiningBatch:
    pair_indices: np.ndarray    # (N,) indices into the source dataset
    identity_ids: np.ndarray    # (N,)
    groups: np.ndarray          # (N,) group tag on the sampler's axis
    selfie_features: np.ndarray  # (N, input_dim)
    doc_features: np.ndarray
    selfie_emb: np.ndarray | None = None  # (N, embed_dim), unit rows
    doc_emb: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.pair_indices)

    def flat_features(self) -> np.ndarray:
        """(2N, input_dim) image matrix in the flattened index convention."""
        return np.vstack([self.selfie_features, self.doc_features])

    def embed_with(self, net: EmbeddingNetwork) -> "MiningBatch":
        """Attach embeddings from a frozen network snapshot."""
        return replace(
            self,
            selfie_emb=net.forward(self.selfie_features),
            doc_emb=net.forward(self.doc_features),
        )


def assemble_batch(dataset: Dataset, sampler: SamplerSpec, n: int,
                   rng: np.random.Generator) -> MiningBatch:
    """Draw N pairs i.i.d.: group by the sampler's distribution, then uniform
    within the group, with replacement."""
    if n < 2:
        raise ValueError("batch size must be >= 2")
    probs = probabilities(sampler, dataset)  # raises for an empty positive-weight group
    index = dataset.group_index(sampler.axis)

    groups = list(probs)
    if sampler.variant == "homogeneous":
        g = choose_homogeneous_group(sampler.weights, rng)
        drawn = np.full(n, groups.index(g))
    else:
        drawn = rng.choice(len(groups), size=n, p=np.array([probs[g] for g in groups]))
    u = rng.random(n)
    pair_idx = np.empty(n, dtype=np.int64)
    for k, g in enumerate(groups):
        rows = drawn == k
        if rows.any():
            members = index[g]
            pair_idx[rows] = members[(u[rows] * len(members)).astype(np.int64)]

    tags = dataset.labels(sampler.axis)
    return MiningBatch(
        pair_indices=pair_idx,
        identity_ids=dataset.identity_ids[pair_idx],
        groups=tags[pair_idx],
        selfie_features=dataset.selfie_features[pair_idx],
        doc_features=dataset.doc_features[pair_idx],
    )


class _Plan(NamedTuple):
    """A round's inputs to the block masks, computed once on the calling
    thread: the embeddings and their squared norms, each slot's limit
    ``D_ap^2 + margin``, the product cuts of the two orientations and the
    same-identity cells."""

    selfie: np.ndarray
    doc: np.ndarray
    na: np.ndarray         # (N,) selfie squared norms
    nb: np.ndarray         # (N,) doc squared norms
    limit: np.ndarray      # (N,)
    row_cuts: np.ndarray   # (2, N): sure, maybe of selfie anchor i (row i)
    col_cuts: np.ndarray   # (2, N): sure, maybe of doc anchor j (column j)
    same_rows: np.ndarray
    same_cols: np.ndarray


def _plan(batch: MiningBatch, margin: float) -> _Plan:
    if batch.selfie_emb is None or batch.doc_emb is None:
        raise ValueError("batch has no embeddings; call embed_with first")
    selfie, doc = batch.selfie_emb, batch.doc_emb
    if not (np.isfinite(selfie).all() and np.isfinite(doc).all()):
        raise ValueError("embeddings must be finite")
    n = batch.n
    # The genuine distances come from the kernel on the diagonal blocks.
    genuine = np.concatenate([
        np.diagonal(cross_squared_distances(selfie[r0:r0 + MINE_BLOCK_ROWS],
                                            doc[r0:r0 + MINE_BLOCK_ROWS]))
        for r0 in range(0, n, MINE_BLOCK_ROWS)
    ])
    limit = genuine + margin
    na, nb = squared_norms(selfie), squared_norms(doc)
    # A row's cuts take its own norm and the extremes of the other side's.
    row_cuts = product_cuts(limit, na, nb.max(), na, nb.min())
    col_cuts = product_cuts(limit, na.max(), nb, na.min(), nb)
    same_rows, same_cols = same_identity_pairs(batch.identity_ids, batch.identity_ids)
    return _Plan(selfie, doc, na, nb, limit, row_cuts, col_cuts, same_rows, same_cols)


class _BlockBuffers(NamedTuple):
    """One worker's block buffers: the product and a boolean mask, padded to
    whole bytes of rows and to whole packed words of columns (the padding
    stays False)."""

    g: np.ndarray
    mask: np.ndarray

    @classmethod
    def for_batch(cls, n: int) -> "_BlockBuffers":
        rows = min(MINE_BLOCK_ROWS, n)
        padded = (-(-rows // 8) * 8, _packed_width(n) * 8)
        return cls(np.empty((rows, n)), np.zeros(padded, dtype=bool))


class _BlockBits(NamedTuple):
    """A block's packed candidate masks, handed from a worker to the calling
    thread: ``selfie_bits`` has the block's selfie anchors as rows, and
    ``doc_bits`` is the block's byte columns of the doc-anchor bit matrix."""

    r0: int
    r1: int
    selfie_bits: np.ndarray  # (r1 - r0, _packed_width(N))
    doc_bits: np.ndarray     # (N, ceil((r1 - r0) / 8))


def _block_bits(plan: _Plan, r0: int, buffers: _BlockBuffers) -> _BlockBits:
    """Both orientations' candidate masks of the selfie rows [r0, r1),
    packed. ``selfie_mask[i - r0, j]`` marks doc_j as a candidate for anchor
    selfie_i and ``doc_mask[i - r0, j]`` marks selfie_i as a candidate for
    anchor doc_j. Both are decided on the block's raw product ``g = selfie
    . doc``, whose matmul call and shape are those of the distance block
    ``cross_squared_distances`` would compute, so every decision is the
    one ``d < limit`` would make on that block's distances. Same-identity
    cells (the diagonal included) are cleared from the round's sort of the
    identity ids rather than an N x N comparison. Runs on worker threads:
    it writes only to ``buffers`` and to the arrays it returns."""
    n = len(plan.doc)
    r1 = min(r0 + MINE_BLOCK_ROWS, n)
    rows = r1 - r0
    g = np.matmul(plan.selfie[r0:r1], plan.doc.T, out=buffers.g[:rows])
    mask = buffers.mask[:rows, :n]
    lo, hi = np.searchsorted(plan.same_rows, (r0, r1))
    same = plan.same_rows[lo:hi] - r0, plan.same_cols[lo:hi]
    na, nb = plan.na[r0:r1, None], plan.nb[None, :]

    decide_below(g, plan.row_cuts[:, r0:r1, None], plan.limit[r0:r1, None], na, nb, mask)
    mask[same] = False
    selfie_bits = np.packbits(buffers.mask[:rows], axis=1, bitorder="little")

    decide_below(g, plan.col_cuts[:, None, :], plan.limit[None, :], na, nb, mask)
    mask[same] = False
    padded = buffers.mask[:-(-rows // 8) * 8]
    padded[rows:] = False
    # np.packbits(padded, axis=0, bitorder="little").T without numpy's slow
    # strided packing: bit t of byte b in row j is padded[8b + t, j].
    doc_bits = np.einsum("btj,t->jb", padded[:, :n].view(np.uint8).reshape(-1, 8, n),
                         _BIT_WEIGHTS)
    return _BlockBits(r0, r1, selfie_bits, doc_bits)


def _for_each_block(batch: MiningBatch, margin: float, consume) -> None:
    """Call ``consume(bits)`` with every block's ``_BlockBits``, in block
    order, on the calling thread.

    The blocks are computed on ``worker_threads(#blocks //
    _BLOCKS_PER_THREAD)`` threads, each with its own ``_BlockBuffers``
    allocated here, on the calling thread, and at most one block per thread
    runs ahead of ``consume``, so the round holds one product buffer per
    thread. On one thread the blocks run inline.
    """
    plan = _plan(batch, margin)
    starts = range(0, batch.n, MINE_BLOCK_ROWS)
    workers = worker_threads(len(starts) // _BLOCKS_PER_THREAD)
    if workers <= 1:
        buffers = _BlockBuffers.for_batch(batch.n)
        for r0 in starts:
            consume(_block_bits(plan, r0, buffers))
        return
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put(_BlockBuffers.for_batch(batch.n))

    def task(r0: int) -> _BlockBits:
        buffers = free.get()
        try:
            return _block_bits(plan, r0, buffers)
        finally:
            free.put(buffers)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = collections.deque(pool.submit(task, r0) for r0 in starts[:workers])
        for r0 in starts[workers:]:
            done = ahead.popleft().result()
            ahead.append(pool.submit(task, r0))
            consume(done)
        while ahead:
            consume(ahead.popleft().result())


def _pick_packed(bits: np.ndarray, rng: np.random.Generator):
    """For each row of a packed mask with any set bit, pick one set column
    uniformly. One uniform draw per nonempty row, consumed in row order;
    returns (rows, cols). ``bits`` is C-contiguous with whole uint64 words
    per row.

    Every search runs on running totals over the flattened block: the global
    rank of each pick, then the word holding it, then the byte within that
    word, then the bit from the byte table."""
    words = bits.view(np.uint64)
    width = words.shape[1]
    word_counts = _word_popcounts(words).ravel()
    cum = np.cumsum(word_counts, dtype=np.int64)
    row_end = cum[width - 1::width]
    counts = np.diff(row_end, prepend=0)
    rows = np.flatnonzero(counts)
    if rows.size == 0:
        return rows, rows
    ks = (rng.random(rows.size) * counts[rows]).astype(np.int64)  # k-th set bit, 0-based
    target = row_end[rows] - counts[rows] + ks
    word = np.searchsorted(cum, target, side="right")
    rank = target - (cum[word] - word_counts[word])  # within the word
    word_bytes = bits.reshape(-1, 8)[word].ravel()
    byte_counts = _POPCOUNT[word_bytes]
    byte_cum = np.cumsum(byte_counts, dtype=np.int64)
    first = np.arange(0, word_bytes.size, 8)
    target = byte_cum[first] - byte_counts[first] + rank
    byte = np.searchsorted(byte_cum, target, side="right")
    rank = target - (byte_cum[byte] - byte_counts[byte])  # within the byte
    cols = (word - rows * width) * 64 + (byte - first) * 8 + _SELECT[word_bytes[byte], rank]
    return rows, cols


def _store_doc_bits(doc_bits: np.ndarray, bits: _BlockBits) -> None:
    """Put a block's byte columns into the doc-anchor bit matrix (row = doc
    anchor, N x _packed_width(N) bytes)."""
    doc_bits[:, bits.r0 // 8:(bits.r1 + 7) // 8] = bits.doc_bits


def mine_semi_hard(batch: MiningBatch, margin: float,
                   rng: np.random.Generator) -> Triplets:
    """Semi-hard triplets for both anchor orientations of every batch slot:
    selfie anchors in slot order, then doc anchors in slot order. Raises
    ``ValueError`` when the batch has no embeddings or a non-finite one."""
    n = batch.n
    doc_bits = np.zeros((n, _packed_width(n)), dtype=np.uint8)
    selfie_picks: list[tuple[np.ndarray, np.ndarray]] = []  # (anchor rows, negative cols)

    def consume(bits: _BlockBits) -> None:
        _store_doc_bits(doc_bits, bits)
        rows, cols = _pick_packed(bits.selfie_bits, rng)
        selfie_picks.append((rows + bits.r0, cols))

    _for_each_block(batch, margin, consume)
    doc_picks = []
    for r0 in range(0, n, _PICK_ROWS):
        rows, cols = _pick_packed(doc_bits[r0:r0 + _PICK_ROWS], rng)
        doc_picks.append((rows + r0, cols))

    s_rows, s_negs = (np.concatenate(x) for x in zip(*selfie_picks))
    d_rows, d_negs = (np.concatenate(x) for x in zip(*doc_picks))
    # Selfie anchor: (selfie_i, doc_i, doc_j); doc anchor: (doc_i, selfie_i, selfie_j).
    return (
        np.concatenate([s_rows, n + d_rows]),
        np.concatenate([n + s_rows, d_rows]),
        np.concatenate([n + s_negs, d_negs]),
    )


def semi_hard_candidates(batch: MiningBatch, margin: float) -> dict[tuple[int, str], np.ndarray]:
    """Candidate negative slots per (anchor slot, anchor domain).

    Exposed for inspection and testing; unpacked from the same block bits
    mine_semi_hard draws from, so its draws are uniform over exactly these
    sets. Holds N x N booleans, so it is meant for small batches.
    """
    n = batch.n
    selfie_bits = np.zeros((n, _packed_width(n)), dtype=np.uint8)  # row = selfie anchor
    doc_bits = np.zeros_like(selfie_bits)

    def consume(bits: _BlockBits) -> None:
        selfie_bits[bits.r0:bits.r1] = bits.selfie_bits
        _store_doc_bits(doc_bits, bits)

    _for_each_block(batch, margin, consume)
    by_selfie = np.unpackbits(selfie_bits, axis=1, count=n, bitorder="little")
    by_doc = np.unpackbits(doc_bits, axis=1, count=n, bitorder="little")
    out: dict[tuple[int, str], np.ndarray] = {}
    for i in range(n):
        out[(i, "selfie")] = np.flatnonzero(by_selfie[i])
        out[(i, "doc")] = np.flatnonzero(by_doc[i])
    return out


def schedule_minibatches(triplets: Triplets, minibatch_size: int,
                         rng: np.random.Generator) -> list[Triplets]:
    """Shuffle once and chunk; every triplet appears exactly once and the last
    chunk may be short."""
    if minibatch_size < 1:
        raise ValueError("minibatch_size must be >= 1")
    order = rng.permutation(len(triplets[0]))
    anchor, positive, negative = (np.asarray(t, dtype=np.int64)[order] for t in triplets)
    return [
        (anchor[i:i + minibatch_size], positive[i:i + minibatch_size],
         negative[i:i + minibatch_size])
        for i in range(0, len(order), minibatch_size)
    ]
