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
gets its distances to every document from the canonical kernel
``cross_squared_distances``, so each selfie/document distance is computed
once per round. Both orientations' candidate masks come from that block: the
selfie anchors' rows are packed to bits and picked from at once; the
document anchors' columns are packed into an N x ceil(N/8) bit matrix that
is picked from, block by block, after the last block. A pick reads per-row
candidate counts and the k-th set bit from byte lookup tables. No N x N
float matrix, boolean mask, transposed copy or N^2 nonzero scan is built:
memory is O(N * MINE_BLOCK_ROWS) floats plus N^2/8 bytes.

Negative draws consume randomness in a fixed order (one uniform per slot
with candidates: all selfie-anchor slots in batch order, then all doc-anchor
slots), so mining is reproducible no matter how the distance computations
are blocked or parallelized.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset, cross_squared_distances, same_identity_pairs, squared_norms
from .model import EmbeddingNetwork
from .sampling import SamplerSpec, choose_homogeneous_group, probabilities

# Selfie rows per mining block. A multiple of 8, so every block but the last
# fills whole bytes of the doc-anchor bit matrix.
MINE_BLOCK_ROWS = 128

# Byte tables for masks packed in little bit order (bit t of byte b is column
# 8b + t): _POPCOUNT[v] counts the set bits of v and _SELECT[v, r] is the
# position of its r-th set bit.
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
_POPCOUNT = _BITS.sum(axis=1).astype(np.uint8)
_SELECT = np.argsort(1 - _BITS, axis=1, kind="stable").astype(np.uint8)
_BIT_WEIGHTS = np.left_shift(1, np.arange(8)).astype(np.uint8)

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


def _candidate_blocks(batch: MiningBatch, margin: float):
    """Yield ``(r0, r1, selfie_mask, doc_mask)`` for each block of batch slots.

    Both masks are (r1 - r0, N) and come from one distance block d, with
    d[i, j] the selfie_i / doc_j squared distance for i in [r0, r1):
    ``selfie_mask[i - r0, j]`` marks doc_j as a candidate for anchor selfie_i,
    and ``doc_mask[j - r0, i]`` marks selfie_j as a candidate for anchor
    doc_i. Same-identity cells (the diagonal included) are cleared from a
    sort of the identity ids rather than an N x N comparison.
    """
    if batch.selfie_emb is None or batch.doc_emb is None:
        raise ValueError("batch has no embeddings; call embed_with first")
    selfie, doc, ids = batch.selfie_emb, batch.doc_emb, batch.identity_ids
    n = batch.n
    starts = range(0, n, MINE_BLOCK_ROWS)
    # The doc-anchor limits are needed by every block, so the genuine
    # distances come first, from the diagonal blocks.
    genuine = np.concatenate([
        np.diagonal(cross_squared_distances(selfie[r0:r0 + MINE_BLOCK_ROWS],
                                            doc[r0:r0 + MINE_BLOCK_ROWS]))
        for r0 in starts
    ])
    limit = genuine + margin
    same_rows, same_cols = same_identity_pairs(ids, ids)
    doc_norms = squared_norms(doc)
    buf = np.empty((min(MINE_BLOCK_ROWS, n), n))  # every block's d, in turn
    for r0 in starts:
        r1 = min(r0 + MINE_BLOCK_ROWS, n)
        d = cross_squared_distances(selfie[r0:r1], doc, b_norms=doc_norms,
                                    out=buf[:r1 - r0])
        selfie_mask = d < limit[r0:r1, None]
        doc_mask = d < limit[None, :]
        lo, hi = np.searchsorted(same_rows, (r0, r1))
        rows, cols = same_rows[lo:hi] - r0, same_cols[lo:hi]
        selfie_mask[rows, cols] = False
        doc_mask[rows, cols] = False
        yield r0, r1, selfie_mask, doc_mask


def _pack_columns(mask: np.ndarray) -> np.ndarray:
    """``np.packbits(mask, axis=0, bitorder="little").T`` without numpy's
    slow strided packing: bit t of byte b in row j is ``mask[8b + t, j]``."""
    rows, cols = mask.shape
    if rows % 8:
        mask = np.vstack([mask, np.zeros((-rows % 8, cols), dtype=bool)])
    return np.einsum("btj,t->jb", mask.view(np.uint8).reshape(-1, 8, cols), _BIT_WEIGHTS)


def _pick_packed(bits: np.ndarray, rng: np.random.Generator):
    """For each row of a packed mask with any set bit, pick one set column
    uniformly. One uniform draw per nonempty row, consumed in row order;
    returns (rows, cols)."""
    width = bits.shape[1]
    byte_counts = _POPCOUNT.take(bits)
    counts = byte_counts.sum(axis=1, dtype=np.int64)
    rows = np.flatnonzero(counts)
    if rows.size == 0:
        return rows, rows
    ks = (rng.random(rows.size) * counts[rows]).astype(np.int64)  # k-th set bit, 0-based
    # Rank of each pick among all set bits of the block, then the byte holding it.
    cum = np.cumsum(byte_counts, axis=None, dtype=np.int64)
    target = cum[rows * width] - byte_counts[rows, 0] + ks
    flat = np.searchsorted(cum, target, side="right")
    rank = target - (cum[flat] - byte_counts.ravel()[flat])
    cols = (flat - rows * width) * 8 + _SELECT[bits.ravel()[flat], rank]
    return rows, cols


def mine_semi_hard(batch: MiningBatch, margin: float,
                   rng: np.random.Generator) -> Triplets:
    """Semi-hard triplets for both anchor orientations of every batch slot:
    selfie anchors in slot order, then doc anchors in slot order."""
    n = batch.n
    doc_bits = np.zeros((n, (n + 7) // 8), dtype=np.uint8)  # row = doc anchor
    selfie_rows, selfie_negs = [], []
    for r0, r1, selfie_mask, doc_mask in _candidate_blocks(batch, margin):
        rows, cols = _pick_packed(np.packbits(selfie_mask, axis=1, bitorder="little"), rng)
        selfie_rows.append(rows + r0)
        selfie_negs.append(cols)
        doc_bits[:, r0 // 8:(r1 + 7) // 8] = _pack_columns(doc_mask)
    doc_rows, doc_negs = [], []
    for r0 in range(0, n, MINE_BLOCK_ROWS):
        rows, cols = _pick_packed(doc_bits[r0:r0 + MINE_BLOCK_ROWS], rng)
        doc_rows.append(rows + r0)
        doc_negs.append(cols)

    s_rows, s_negs = np.concatenate(selfie_rows), np.concatenate(selfie_negs)
    d_rows, d_negs = np.concatenate(doc_rows), np.concatenate(doc_negs)
    # Selfie anchor: (selfie_i, doc_i, doc_j); doc anchor: (doc_i, selfie_i, selfie_j).
    return (
        np.concatenate([s_rows, n + d_rows]),
        np.concatenate([n + s_rows, d_rows]),
        np.concatenate([n + s_negs, d_negs]),
    )


def semi_hard_candidates(batch: MiningBatch, margin: float) -> dict[tuple[int, str], np.ndarray]:
    """Candidate negative slots per (anchor slot, anchor domain).

    Exposed for inspection and testing; built from the same blocked masks
    mine_semi_hard draws from, so its draws are uniform over exactly these
    sets. Holds an N x N boolean matrix, so it is meant for small batches.
    """
    selfie_sets: list[np.ndarray] = []
    doc_masks = []
    for _, _, selfie_mask, doc_mask in _candidate_blocks(batch, margin):
        selfie_sets.extend(np.flatnonzero(row) for row in selfie_mask)
        doc_masks.append(doc_mask)
    by_anchor = np.concatenate(doc_masks).T
    out: dict[tuple[int, str], np.ndarray] = {}
    for i in range(batch.n):
        out[(i, "selfie")] = selfie_sets[i]
        out[(i, "doc")] = np.flatnonzero(by_anchor[i])
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
