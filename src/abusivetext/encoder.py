"""Desk-scale transformer-encoder classifier trained from scratch.

The stack is deliberately plain so every gradient is checkable against
finite differences: learned token + position embeddings, post-layer-norm
blocks of masked multi-head self-attention and a ReLU feed-forward, and a
single-logit sigmoid head read off the CLS position. Padding keys receive a
-1e30 additive score before the softmax, which makes the output exactly
invariant to whatever sits in the PAD tail. The head reads nothing but the
CLS row, so the last layer runs its query, attention rows, residual, layer
norms and feed-forward on that row alone, and folds that one query into its
key and value weights, so it builds no per-position keys or values.

Tokenization is a corpus-trained byte-pair encoder: specials (CLS/PAD/UNK),
then the corpus's single bytes, then merged pieces. Bytes never seen in
training encode as UNK, so encoding cannot fail.

All arithmetic is float64 and every random draw flows from one seeded
generator, so training is bit-reproducible.
"""
from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .configs import EncoderConfig, TrainConfigEnc
from .corpus import Label
from .errors import DimensionMismatch, EmptyCorpus, EmptyData
from .linear import _add_up, descend, sigmoid
from .metrics import TrainReport

CLS_ID = 0
PAD_ID = 1
UNK_ID = 2

_MASK_BIAS = 1e30
_LN_EPS = 1e-5
# Rows per forward pass in predict_probs.
_PREDICT_BLOCK = 32
# Every single byte as a one-byte bytes object, indexed by its value.
_BYTES = tuple(bytes([b]) for b in range(256))


# ---------------------------------------------------------------------------
# Subword tokenizer
# ---------------------------------------------------------------------------

class SubwordTokenizer:
    """Byte-pair tokenizer. ``pieces`` maps ids 3.. in order; ``merges`` is
    the learned merge list, whose order doubles as merge priority. Each
    instance memoizes word -> piece ids; the memo is not part of equality."""

    def __init__(
        self,
        pieces: Sequence[bytes],
        merges: Sequence[tuple[bytes, bytes]] = (),
    ):
        self.pieces = tuple(pieces)
        self.merges = tuple((bytes(a), bytes(b)) for a, b in merges)
        if len(set(self.pieces)) != len(self.pieces):
            raise ValueError("tokenizer pieces must be unique")
        self.piece_to_id = {piece: i + 3 for i, piece in enumerate(self.pieces)}
        self._merge_rank = {pair: rank for rank, pair in enumerate(self.merges)}
        self._word_ids: dict[str, tuple[int, ...]] = {}

    @property
    def vocab_size(self) -> int:
        return 3 + len(self.pieces)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubwordTokenizer):
            return NotImplemented
        return self.pieces == other.pieces and self.merges == other.merges

    def pieces_of_word(self, word: str) -> list[bytes]:
        """Split one word into byte pieces, lowest merge rank first.

        One rank is kept per adjacent pair, so the best pair is one ``min``
        over that list. Every non-overlapping occurrence of the winning pair
        merges, left to right, and each merge re-looks-up only the ranks of
        its two new neighbours. This is the full rescan that re-applies the
        lowest-ranked merge until none applies, done without the rescans: a
        rank names exactly one pair, so finding the next occurrence is a
        search for the rank. A pair listed twice in ``merges`` takes its
        later rank."""
        symbols = list(map(_BYTES.__getitem__, word.encode("utf-8")))
        rank_of = self._merge_rank.get
        no_rank = len(self.merges)
        ranks = list(map(rank_of, zip(symbols, symbols[1:]), repeat(no_rank)))
        while ranks:
            best = min(ranks)
            if best == no_rank:
                break
            i = ranks.index(best)
            merged = symbols[i] + symbols[i + 1]
            while True:
                symbols[i : i + 2] = (merged,)
                del ranks[i]
                if i:
                    ranks[i - 1] = rank_of((symbols[i - 1], merged), no_rank)
                if i < len(ranks):
                    ranks[i] = rank_of((merged, symbols[i + 1]), no_rank)
                # Ranks left of i hold no ``best`` any more.
                if best not in ranks:
                    break
                i = ranks.index(best, i + 1)
        return symbols

    def word_ids(self, word: str) -> tuple[int, ...]:
        """Piece ids of one word, UNK for pieces outside the inventory."""
        ids = self._word_ids.get(word)
        if ids is None:
            ids = tuple(
                self.piece_to_id.get(p, UNK_ID) for p in self.pieces_of_word(word)
            )
            self._word_ids[word] = ids
        return ids


def derive_pieces(
    byte_pieces: Sequence[bytes], merges: Sequence[tuple[bytes, bytes]]
) -> list[bytes]:
    """The piece inventory a byte inventory and a merge list fix: the single
    bytes in the given order, then each merge's output the first time a merge
    makes it. Raises ValueError for a merge operand that is not yet a piece."""
    pieces = list(byte_pieces)
    known = set(pieces)
    for a, b in merges:
        if a not in known or b not in known:
            raise ValueError(f"merge {a.hex()}.{b.hex()} has an operand that is not yet a piece")
        merged = a + b
        if merged not in known:
            known.add(merged)
            pieces.append(merged)
    return pieces


def train_subword(corpus: Sequence[str], vocab_size: int) -> SubwordTokenizer:
    """Greedy byte-pair-merge training until the inventory reaches vocab_size.

    Each step merges the most frequent adjacent pair; ties break toward the
    lexicographically smallest pair, so training is fully deterministic.
    vocab_size counts the whole inventory: the three specials, the corpus's
    single bytes, and learned merges.

    Pair counts are updated locally, as in the reference BPE procedure
    (Sennrich et al., arXiv:1508.07909): merging an occurrence of (a, b)
    between ``left`` and ``right`` in a word of frequency f moves f from
    (left, a) and (b, right) to (left, ab) and (ab, right). Occurrences are
    merged one at a time, left to right, each against the word as the
    previous ones left it, so overlapping runs such as "aaaa" or "abab" net
    out exactly. The best pair comes off a heap keyed (-count, pair) with
    lazy invalidation: an entry whose count is stale is dropped when it
    reaches the top. The key's order is the count-then-pair tie-break, so
    the merges and pieces are those of a full recount before every merge.
    The pieces are derive_pieces of the sorted single bytes and the merges,
    the same derivation a bundle's tokenizer is loaded with.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("cannot train a tokenizer on an empty corpus")
    if vocab_size < 4:
        raise ValueError("vocab_size must be >= 4")

    word_freqs: Counter[str] = Counter()
    for text in corpus:
        word_freqs.update(text.split())
    vocabulary = sorted(word_freqs.items())
    words: list[tuple[list[bytes], int]] = [
        (list(map(_BYTES.__getitem__, word.encode("utf-8"))), freq)
        for word, freq in vocabulary
    ]

    byte_pieces = sorted({s for symbols, _ in words for s in symbols})
    known = set(byte_pieces)
    merges: list[tuple[bytes, bytes]] = []
    # A plain dict, not a Counter: a Counter's missing-key hook is a Python
    # call for every pair that a merge makes.
    pair_counts: dict[tuple[bytes, bytes], int] = {}
    # The words that held each pair at some point; a listed word may since
    # have lost it, which only costs a scan that finds nothing.
    words_with: defaultdict[tuple[bytes, bytes], set[int]] = defaultdict(set)
    for index, (symbols, freq) in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
            words_with[pair].add(index)
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)
    while 3 + len(known) < vocab_size and pair_counts:
        while pair_counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        best = heapq.heappop(heap)[1]
        merges.append(best)
        a, b = best
        merged = a + b
        known.add(merged)
        changed: set[tuple[bytes, bytes]] = set()
        for index in words_with.pop(best):
            symbols, freq = words[index]
            # Every merge shortens the word by one, hence the moving bound.
            i, last = 0, len(symbols) - 1
            while i < last:
                if symbols[i] == a and symbols[i + 1] == b:
                    symbols[i : i + 2] = (merged,)
                    last -= 1
                    if i:
                        left = symbols[i - 1]
                        pair_counts[left, a] -= freq
                        pair = left, merged
                        pair_counts[pair] = pair_counts.get(pair, 0) + freq
                        words_with[pair].add(index)
                        changed.update(((left, a), pair))
                    if i < last:
                        right = symbols[i + 1]
                        pair_counts[b, right] -= freq
                        pair = merged, right
                        pair_counts[pair] = pair_counts.get(pair, 0) + freq
                        words_with[pair].add(index)
                        changed.update(((b, right), pair))
                i += 1
        # A merge removes every occurrence of its pair, so no word keeps it.
        del pair_counts[best]
        changed.discard(best)
        for pair in changed:
            count = pair_counts[pair]
            if count:
                heapq.heappush(heap, (-count, pair))
            else:
                del pair_counts[pair]
    tokenizer = SubwordTokenizer(pieces=derive_pieces(byte_pieces, merges), merges=merges)
    _remember_segmentations(
        tokenizer, len(byte_pieces),
        ((word, symbols) for (word, _), (symbols, _) in zip(vocabulary, words)),
    )
    return tokenizer


def _remember_segmentations(
    tokenizer: SubwordTokenizer,
    n_bytes: int,
    segmentations: Iterable[tuple[str, list[bytes]]],
) -> None:
    """Seed the tokenizer's word memo with the symbols training left in each
    word, when every merge made a new piece (the inventory has ``n_bytes``
    single bytes); otherwise seed nothing.

    A merge whose output is new makes a symbol no earlier merge names, so no
    merged pair can form again, and each word's symbols are then exactly
    what pieces_of_word returns. A merge that repeats an output breaks that
    argument, so then the memo fills on demand as usual."""
    if len(tokenizer.merges) != len(tokenizer.pieces) - n_bytes:
        return
    piece_id = tokenizer.piece_to_id.__getitem__
    tokenizer._word_ids.update(
        (word, tuple(map(piece_id, symbols))) for word, symbols in segmentations
    )


def encode(
    tokenizer: SubwordTokenizer, text: str, max_length: int = 128
) -> tuple[np.ndarray, np.ndarray]:
    """Encode text as [CLS] + pieces, truncated and PAD-filled to exactly
    max_length. Returns (ids, mask) with mask 1 on real tokens, 0 on padding."""
    ids, mask = encode_batch(tokenizer, [text], max_length)
    return ids[0], mask[0]


def encode_batch(
    tokenizer: SubwordTokenizer, texts: Sequence[str], max_length: int
) -> tuple[np.ndarray, np.ndarray]:
    """encode() for each text, stacked into (len(texts), max_length) int64 ids
    and float64 mask arrays. The rows' real ids are gathered into one list
    and written into the PAD-filled ids in one assignment, row-major, through
    the mask, which is one comparison of the column index against the row
    lengths."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    # The largest array comes first, so an impossible max_length fails here
    # before anything of size max_length alone is written.
    ids = np.full((len(texts), max_length), PAD_ID, dtype=np.int64)
    # A word from split() has at least one piece, so a memo miss is the only
    # falsy lookup.
    remembered, word_ids = tokenizer._word_ids.get, tokenizer.word_ids
    real_ids: list[int] = []
    lengths: list[int] = []
    for text in texts:
        row = [CLS_ID]
        for word in text.split():
            if len(row) >= max_length:
                break
            row += remembered(word) or word_ids(word)
        del row[max_length:]
        real_ids += row
        lengths.append(len(row))
    real = np.arange(max_length) < np.array(lengths, dtype=np.int64)[:, None]
    ids[real] = real_ids
    return ids, real.astype(np.float64)


# ---------------------------------------------------------------------------
# Model configuration and parameters
# ---------------------------------------------------------------------------

class EncoderModel:
    """The flat parameter vector ``theta`` plus the architecture it
    instantiates. ``params`` holds a view of ``theta`` for every tensor of
    the table, so a write through either shows in the other."""

    def __init__(self, theta: np.ndarray, config: EncoderConfig, vocab_size: int):
        self.theta = theta
        self.config = config
        self.vocab_size = vocab_size
        self.params = _views(theta, parameter_shapes(config, vocab_size))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncoderModel):
            return NotImplemented
        return (
            self.config == other.config
            and self.vocab_size == other.vocab_size
            and np.array_equal(self.theta, other.theta)
        )


def _tensors(config: EncoderConfig, vocab_size: int, n_layers: int):
    """(name, shape, init) of every parameter tensor for ``n_layers`` layers,
    in flat-vector order. ``init`` is 0.0, 1.0 or the (numerator, fan) of a
    seeded uniform draw's limit sqrt(numerator / fan): 1/sqrt(d) scale for
    embeddings, Glorot limits for matrices. Only init_theta divides, so
    shapes and counts read off the table are integer arithmetic alone."""
    d, f = config.d_model, config.d_ff
    yield "tok_emb", (vocab_size, d), (3.0, d)
    yield "pos_emb", (config.max_length, d), (3.0, d)
    for i in range(n_layers):
        p = f"layer{i}."
        for x in "qkvo":
            yield p + f"attn.w{x}", (d, d), (6.0, d + d)
            yield p + f"attn.b{x}", (d,), 0.0
        yield p + "ln1.gamma", (d,), 1.0
        yield p + "ln1.beta", (d,), 0.0
        yield p + "ffn.w1", (d, f), (6.0, d + f)
        yield p + "ffn.b1", (f,), 0.0
        yield p + "ffn.w2", (f, d), (6.0, f + d)
        yield p + "ffn.b2", (d,), 0.0
        yield p + "ln2.gamma", (d,), 1.0
        yield p + "ln2.beta", (d,), 0.0
    yield "head.w", (d,), (6.0, d + 1)
    yield "head.b", (), 0.0


def parameter_shapes(config: EncoderConfig, vocab_size: int) -> dict[str, tuple]:
    """Declared shape of every parameter tensor, in flat-vector order."""
    return {name: shape for name, shape, _ in _tensors(config, vocab_size, config.n_layers)}


def parameter_count(config: EncoderConfig, vocab_size: int) -> int:
    """Length of the flat parameter vector, read off the tensor table at zero
    and one layer, so its cost does not grow with ``n_layers``."""
    bare, one = (sum(math.prod(shape) for _, shape, _ in _tensors(config, vocab_size, n))
                 for n in (0, 1))
    return bare + config.n_layers * (one - bare)


def _views(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """A view of ``flat`` for every named shape, laid end to end in order."""
    views: dict[str, np.ndarray] = {}
    start = 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[start : start + size].reshape(shape)
        start += size
    return views


def init_theta(config: EncoderConfig, vocab_size: int, seed: int) -> np.ndarray:
    """The flat parameter vector at initialization: each tensor of the table
    written into its stretch, uniform ones drawn (in C order) in table order
    from one generator seeded with ``seed``. Raises ValueError naming the
    sizes when no array can hold the vector."""
    rng = np.random.default_rng(seed)
    try:
        theta = np.empty(parameter_count(config, vocab_size))
    # The count is left out of the message: past 4,300 digits str() raises.
    except (ValueError, MemoryError) as exc:
        raise ValueError(
            f"no array holds the encoder's parameters at d_model {config.d_model}, "
            f"d_ff {config.d_ff}, n_layers {config.n_layers} and max_length "
            f"{config.max_length}: {exc}"
        ) from exc
    end = 0
    for _, shape, init in _tensors(config, vocab_size, config.n_layers):
        start, end = end, end + math.prod(shape)
        if isinstance(init, tuple):
            limit = math.sqrt(init[0] / init[1])
            init = rng.uniform(-limit, limit, size=end - start)
        theta[start:end] = init
    return theta


def init_params(config: EncoderConfig, vocab_size: int, seed: int) -> dict[str, np.ndarray]:
    """init_theta as a view of every tensor, by name."""
    return _views(init_theta(config, vocab_size, seed), parameter_shapes(config, vocab_size))


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    d = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(centred**2, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centred * inv
    return gamma * xhat + beta, (xhat, inv)


def _layer_norm_backward(dy: np.ndarray, cache, gamma: np.ndarray):
    xhat, inv = cache
    d = xhat.shape[-1]
    dgamma = (dy * xhat).sum(axis=(0, 1))
    dbeta = dy.sum(axis=(0, 1))
    dxhat = dy * gamma
    dx = inv * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
    )
    return dx, dgamma, dbeta


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, length, d = x.shape
    return x.reshape(b, length, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, length, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, length, h * dh)


def _head_weights(w: np.ndarray, n_heads: int) -> np.ndarray:
    """A (d, d) projection as the (n_heads, d, d_head) stack of each head's
    columns: a view, so adding into it adds into ``w``."""
    d = w.shape[0]
    return w.reshape(d, n_heads, d // n_heads).transpose(1, 0, 2)


def _self_attention(
    params: dict[str, np.ndarray], p: str, config: EncoderConfig,
    x: np.ndarray, key_bias: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """Masked multi-head attention with a query at every position: the
    merged context (batch, length, d) and what the backward pass needs."""
    q = x @ params[p + "attn.wq"] + params[p + "attn.bq"]
    k = x @ params[p + "attn.wk"] + params[p + "attn.bk"]
    v = x @ params[p + "attn.wv"] + params[p + "attn.bv"]
    qh = _split_heads(q, config.n_heads)
    kh = _split_heads(k, config.n_heads)
    vh = _split_heads(v, config.n_heads)
    scores = qh @ kh.transpose(0, 1, 3, 2) * (1.0 / math.sqrt(config.d_head))
    scores += key_bias[:, :, None, :]
    scores -= scores.max(axis=-1, keepdims=True)
    exp = np.exp(scores)
    attn = exp / exp.sum(axis=-1, keepdims=True)
    return _merge_heads(attn @ vh), dict(qh=qh, kh=kh, vh=vh, attn=attn)


def _cls_attention(
    params: dict[str, np.ndarray], p: str, config: EncoderConfig,
    x: np.ndarray, key_bias: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """Masked multi-head attention for the CLS query alone, with no key or
    value built: the merged context (batch, 1, d) and what the backward pass
    needs.

    Head h scores key j as scale * q_h . (x_j W_k,h + b_k,h). The bias term
    is the same for every key of the row, so the softmax cancels it, and the
    rest is x_j . u_h with u_h = W_k,h q_h. The attention rows sum to 1, so
    the context sum_j attn_j (x_j W_v,h + b_v,h) is z_h W_v,h + b_v,h with
    z_h = sum_j attn_j x_j. Both cost d per key and head where K and V cost
    d * d per key."""
    batch, _, d = x.shape
    n_heads = config.n_heads
    cls = x[:, :1, :]
    q = (cls @ params[p + "attn.wq"] + params[p + "attn.bq"]).reshape(batch, n_heads, -1)
    wk = _head_weights(params[p + "attn.wk"], n_heads)
    wv = _head_weights(params[p + "attn.wv"], n_heads)
    # (heads, d, d_head) @ (heads, d_head, batch), then batch first.
    u = (wk @ q.transpose(1, 2, 0)).transpose(2, 0, 1)
    scores = u @ x.transpose(0, 2, 1)
    scores *= 1.0 / math.sqrt(config.d_head)
    scores += key_bias
    scores -= scores.max(axis=-1, keepdims=True)
    exp = np.exp(scores)
    attn = exp / exp.sum(axis=-1, keepdims=True)
    z = attn @ x
    ctx = (z.transpose(1, 0, 2) @ wv).transpose(1, 0, 2).reshape(batch, 1, d)
    ctx += params[p + "attn.bv"]
    return ctx, dict(q=q, u=u, z=z, attn=attn[:, :, None, :])


def forward_batch(
    params: dict[str, np.ndarray],
    config: EncoderConfig,
    ids: np.ndarray,
    mask: np.ndarray,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Run the encoder on a batch. Returns (probabilities, cache); the cache
    holds every intermediate the backward pass needs. The batch may be
    narrower than max_length (see trim_padding); positions use the first
    columns of pos_emb. Dropout is applied only when a generator is passed
    (training mode) and the configured rate is nonzero; its masks are drawn
    at full max_length width and sliced, so trimming leaves the random
    stream unchanged.

    The last layer computes only the CLS row (the one the head reads) and
    builds no keys or values (see _cls_attention): its cached attention rows
    are (batch, heads, 1, length) and its activations have one position.
    Inner layers run full attention at every position."""
    if ids.ndim != 2 or not 1 <= ids.shape[1] <= config.max_length:
        raise DimensionMismatch(
            f"ids must have shape (batch, 1..{config.max_length}), got {ids.shape}"
        )
    if mask.shape != ids.shape:
        raise DimensionMismatch("mask shape must match ids shape")

    key_bias = (mask[:, None, :] - 1.0) * _MASK_BIAS
    drop_rate = config.dropout if dropout_rng is not None else 0.0

    batch, length = ids.shape

    def dropout_mask(width: int) -> np.ndarray | None:
        if drop_rate == 0.0:
            return None
        shape = (batch, config.max_length, config.d_model)
        keep = dropout_rng.random(shape)[:, :width, :] >= drop_rate
        return keep.astype(np.float64) / (1.0 - drop_rate)

    # The gather is a fresh array, so the positions are added into it.
    x = params["tok_emb"][ids]
    x += params["pos_emb"][:length]
    layers = []
    for i in range(config.n_layers):
        p = f"layer{i}."
        x_in = x
        # The head reads only the CLS row, so the last layer computes its
        # query, and everything after it, for that row alone.
        if i == config.n_layers - 1:
            rows = x[:, :1, :]
            ctx, attention = _cls_attention(params, p, config, x, key_bias)
        else:
            rows = x
            ctx, attention = _self_attention(params, p, config, x, key_bias)
        proj = ctx @ params[p + "attn.wo"] + params[p + "attn.bo"]
        attn_drop = dropout_mask(rows.shape[1])
        if attn_drop is not None:
            proj = proj * attn_drop
        x1, ln1 = _layer_norm(
            rows + proj, params[p + "ln1.gamma"], params[p + "ln1.beta"]
        )
        h1 = x1 @ params[p + "ffn.w1"] + params[p + "ffn.b1"]
        h1r = np.maximum(h1, 0.0)
        f = h1r @ params[p + "ffn.w2"] + params[p + "ffn.b2"]
        ffn_drop = dropout_mask(rows.shape[1])
        if ffn_drop is not None:
            f = f * ffn_drop
        x, ln2 = _layer_norm(
            x1 + f, params[p + "ln2.gamma"], params[p + "ln2.beta"]
        )
        layers.append(
            dict(
                x_in=x_in, ctx=ctx, ln1=ln1, x1=x1, h1=h1, h1r=h1r, ln2=ln2,
                attn_drop=attn_drop, ffn_drop=ffn_drop, **attention,
            )
        )
    cls = x[:, 0, :]
    logits = cls @ params["head.w"] + params["head.b"]
    probs = sigmoid(logits)
    cache = dict(ids=ids, layers=layers, cls=cls, logits=logits)
    return probs, cache


def batch_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy, clipped away from log(0)."""
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    return float(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).mean())


def _flat(x: np.ndarray) -> np.ndarray:
    """(batch, length, features) -> (batch * length, features), so a weight
    gradient summed over batch and positions is one 2-D matrix product."""
    return x.reshape(-1, x.shape[-1])


def _self_attention_backward(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], p: str,
    config: EncoderConfig, layer: dict, dctx: np.ndarray, dx: np.ndarray,
) -> np.ndarray:
    """Add _self_attention's weight gradients into ``grads``, given the
    context gradient (batch, length, d); returns the gradient of the layer's
    input, ``dx`` (its residual part) plus the part through attention."""
    scale = 1.0 / math.sqrt(config.d_head)
    dctx = _split_heads(dctx, config.n_heads)
    attn, vh, qh, kh = layer["attn"], layer["vh"], layer["qh"], layer["kh"]
    dattn = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dqh = dscores @ kh * scale
    dkh = dscores.transpose(0, 1, 3, 2) @ qh * scale
    x_in = layer["x_in"]
    for name, dhead in (("wq", dqh), ("wk", dkh), ("wv", dvh)):
        dmat = _merge_heads(dhead)
        grads[p + f"attn.{name}"] += _flat(x_in).T @ _flat(dmat)
        grads[p + f"attn.b{name[1]}"] += dmat.sum(axis=(0, 1))
        dx = dx + dmat @ params[p + f"attn.{name}"].T
    return dx


def _cls_attention_backward(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], p: str,
    config: EncoderConfig, layer: dict, dctx: np.ndarray, dcls: np.ndarray,
) -> np.ndarray:
    """Add _cls_attention's weight gradients into ``grads``, given the
    context gradient (batch, 1, d); returns the gradient of the layer's
    input, ``dcls`` (the residual's, CLS row only) plus the part through
    attention. The key bias gets none: the softmax cancels it, so its
    gradient is 0."""
    scale = 1.0 / math.sqrt(config.d_head)
    n_heads = config.n_heads
    x, q, u, z = layer["x_in"], layer["q"], layer["u"], layer["z"]
    attn = layer["attn"][:, :, 0, :]
    batch, _, d = x.shape
    # Heads first, so each per-head product is one stacked matmul.
    dctx_h = dctx.reshape(batch, n_heads, -1).transpose(1, 0, 2)
    dwv = _head_weights(grads[p + "attn.wv"], n_heads)
    dwv += z.transpose(1, 2, 0) @ dctx_h
    grads[p + "attn.bv"] += dctx.sum(axis=(0, 1))
    wv = _head_weights(params[p + "attn.wv"], n_heads)
    dz = (dctx_h @ wv.transpose(0, 2, 1)).transpose(1, 0, 2)
    dattn = dz @ x.transpose(0, 2, 1)
    ds = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    ds *= scale
    du = ds @ x
    # attn^T dz + ds^T u as one product over 2 * heads: with the inner
    # dimension as small as the head count, numpy's matmul does not use BLAS.
    dx = (
        np.concatenate((attn, ds), axis=1).transpose(0, 2, 1)
        @ np.concatenate((dz, u), axis=1)
    )
    dwk = _head_weights(grads[p + "attn.wk"], n_heads)
    dwk += du.transpose(1, 2, 0) @ q.transpose(1, 0, 2)
    wk = _head_weights(params[p + "attn.wk"], n_heads)
    dq = (du.transpose(1, 0, 2) @ wk).transpose(1, 0, 2).reshape(batch, d)
    cls = x[:, 0, :]
    grads[p + "attn.wq"] += cls.T @ dq
    grads[p + "attn.bq"] += dq.sum(axis=0)
    dx[:, 0] += dcls[:, 0] + dq @ params[p + "attn.wq"].T
    return dx


def backward_batch(
    params: dict[str, np.ndarray],
    config: EncoderConfig,
    cache: dict,
    probs: np.ndarray,
    labels: np.ndarray,
    grads: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Gradients of the mean cross-entropy w.r.t. every parameter tensor.

    Each gradient is added into ``grads``, which must hold zeros of every
    parameter's shape; new zero arrays are made when it is None."""
    ids = cache["ids"]
    batch, length = ids.shape

    if grads is None:
        grads = {name: np.zeros_like(value) for name, value in params.items()}
    dlogits = (probs - labels) / batch
    grads["head.w"] += cache["cls"].T @ dlogits
    grads["head.b"] += dlogits.sum()
    # The last layer's output is the CLS row alone.
    dx = (dlogits[:, None] * params["head.w"][None, :])[:, None, :]

    for i in reversed(range(config.n_layers)):
        p = f"layer{i}."
        layer = cache["layers"][i]
        dr2, dg2, db2 = _layer_norm_backward(dx, layer["ln2"], params[p + "ln2.gamma"])
        grads[p + "ln2.gamma"] += dg2
        grads[p + "ln2.beta"] += db2

        df = dr2 if layer["ffn_drop"] is None else dr2 * layer["ffn_drop"]
        grads[p + "ffn.w2"] += _flat(layer["h1r"]).T @ _flat(df)
        grads[p + "ffn.b2"] += df.sum(axis=(0, 1))
        dh1 = (df @ params[p + "ffn.w2"].T) * (layer["h1"] > 0.0)
        grads[p + "ffn.w1"] += _flat(layer["x1"]).T @ _flat(dh1)
        grads[p + "ffn.b1"] += dh1.sum(axis=(0, 1))
        dx1 = dr2 + dh1 @ params[p + "ffn.w1"].T

        dr1, dg1, db1 = _layer_norm_backward(dx1, layer["ln1"], params[p + "ln1.gamma"])
        grads[p + "ln1.gamma"] += dg1
        grads[p + "ln1.beta"] += db1

        dproj = dr1 if layer["attn_drop"] is None else dr1 * layer["attn_drop"]
        grads[p + "attn.wo"] += _flat(layer["ctx"]).T @ _flat(dproj)
        grads[p + "attn.bo"] += dproj.sum(axis=(0, 1))
        dctx = dproj @ params[p + "attn.wo"].T
        backward = (
            _cls_attention_backward if i == config.n_layers - 1
            else _self_attention_backward
        )
        dx = backward(params, grads, p, config, layer, dctx, dr1)

    grads["tok_emb"] += embedding_gradient(ids, dx, len(params["tok_emb"]))
    grads["pos_emb"][:length] += dx.sum(axis=0)
    return grads


def embedding_gradient(ids: np.ndarray, dx: np.ndarray, vocab_size: int) -> np.ndarray:
    """The (vocab_size, d) sum of dx's rows by token id: np.add.at(zeros, ids,
    dx) as one linear._add_up over ids * d + column. Both add each bin's
    terms in input order from 0.0, so the sums are bit-equal."""
    d = dx.shape[-1]
    bins = (ids[..., None] * d + np.arange(d)).ravel()
    return _add_up(bins, dx.ravel(), vocab_size * d).reshape(vocab_size, d)


def trim_padding(ids: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut a padded batch to its longest real row (at least one column).

    Dropped columns are padding in every row: as keys they get exactly zero
    attention and as queries they never reach the CLS output, so the result
    is the full-width one up to float summation order."""
    real = np.flatnonzero(mask.any(axis=0))
    width = int(real[-1]) + 1 if real.size else 1
    return ids[:, :width], mask[:, :width]


def predict_probs(model: EncoderModel, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Probabilities for a whole (n, max_length) batch, no dropout.

    Rows run through the encoder in blocks of _PREDICT_BLOCK, each trimmed to
    its own longest row, so the attention scores stay small whatever n is.
    Rows do not interact, so the result is the one-call one up to float
    summation order."""
    probs = np.empty(len(ids), dtype=np.float64)
    for start in range(0, len(ids), _PREDICT_BLOCK):
        block = slice(start, start + _PREDICT_BLOCK)
        probs[block], _ = forward_batch(
            model.params, model.config, *trim_padding(ids[block], mask[block])
        )
    return probs


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_encoder(
    train: Sequence[tuple[str, Label]],
    dev: Sequence[tuple[str, Label]],
    tokenizer: SubwordTokenizer,
    enc_config: EncoderConfig = EncoderConfig(),
    train_config: TrainConfigEnc = TrainConfigEnc(),
    seed: int = 0,
) -> tuple[EncoderModel, TrainReport]:
    """Minimize cross-entropy with linear.descend's mini-batch gradient descent
    for a fixed number of epochs, recording dev macro-F1 after each one. No
    early stopping and no model selection: the final-epoch model is returned.
    ``seed`` drives the initialization, the shuffling and the dropout."""
    if len(train) == 0:
        raise EmptyData("encoder training data is empty")
    if len(dev) == 0:
        raise EmptyData("encoder training requires a dev split")

    max_length = enc_config.max_length
    train_ids, train_mask = encode_batch(tokenizer, [t for t, _ in train], max_length)
    train_labels = np.array([float(y) for _, y in train])
    dev_ids, dev_mask = encode_batch(tokenizer, [t for t, _ in dev], max_length)

    rng = np.random.default_rng(seed)
    vocab_size = tokenizer.vocab_size
    model = EncoderModel(init_theta(enc_config, vocab_size, seed), enc_config, vocab_size)
    # The gradients are views into one flat vector too, so a step zero-fills
    # and updates every tensor with one array operation.
    params = model.params
    flat_grads = np.empty_like(model.theta)
    grads = _views(flat_grads, parameter_shapes(enc_config, vocab_size))

    def gradient(pick: np.ndarray) -> np.ndarray:
        ids, mask = trim_padding(train_ids[pick], train_mask[pick])
        probs, cache = forward_batch(params, enc_config, ids, mask, dropout_rng=rng)
        flat_grads.fill(0.0)
        backward_batch(params, enc_config, cache, probs, train_labels[pick], grads)
        return flat_grads

    report = descend(
        model.theta, train_config, "encoder", lambda: rng.permutation(len(train)), gradient,
        lambda: batch_loss(predict_probs(model, train_ids, train_mask), train_labels),
        ([label for _, label in dev], lambda: predict_probs(model, dev_ids, dev_mask)),
    )
    return model, report
