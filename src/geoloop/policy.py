"""A first-order toy policy computed as one next-token table, plus its synthetic task.

Architecture (deliberately tiny so every gradient is analytic):

    ctx        = mean of embedded prompt+principle tokens   (order-free bag)
    h_t        = ctx_scale * ctx + prev_scale * embed[y_{t-1}]   (h_0 drops the prev term)
    logits_t   = h_t @ out
    p(y_t|...) = softmax(logits_t)

Every next-token distribution depends only on the context and the previous
token, so the forward pass is one table (`NextTokenTable`) of shape
(C, V+1, V) over C contexts: row 0 is the first position, row r = 1..V
follows token r-1.  `ToyPolicy.bag` checks each context's tokens and computes
its bag weights, which no parameter touches; `ToyPolicy.forward` turns those
weights into the table, and `ToyPolicy.table` does both.  A loop over fixed
contexts (the MLE warm starts) bags them once.  A completion enters only through
its (row, token) transition counts.  Sequence log-likelihoods are products of
the table with those counts, hidden summaries are count-weighted means of the
table's feature rows, and sampling decodes a whole batch of rows position by
position from it.  The gradient of any weighted sum of log-likelihoods and
summaries is one `ToyPolicy.backward` call through the feature map; the
per-sequence methods are thin views on the table and that call.

Zero-initialised parameters give the uniform policy, so every token template
has probability V^{-|y|} > 0 from the start.  Sampling decodes with fixed
settings, nucleus TOP_P and repetition penalty REPETITION_PENALTY; they shape
the draw only, and every log-probability and entropy refers to the plain
softmax distribution.

The synthetic task mirrors a strict tag format at token level: a completion
is format-valid iff it is exactly

    R_OPEN <fillers> R_CLOSE A_OPEN <fillers> A_CLOSE

(anchored, one pair of each tag).  Reasoning and answer sections draw from
disjoint filler subsets so a previous-token policy can represent the grammar,
and each principle biases the filler choice inside the tags, making the true
principle statistically identifiable from completions.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_VOCAB_SIZE = 16
DEFAULT_DIM = 32
DEFAULT_MAX_LEN = 12
# Decode settings of every sample: nucleus mass and repetition penalty.
TOP_P = 0.95
REPETITION_PENALTY = 1.1


@dataclass(frozen=True)
class Vocab:
    """Token ids: fillers first, five reserved structure tokens at the top."""

    size: int = DEFAULT_VOCAB_SIZE

    def __post_init__(self):
        if self.size < 8:
            raise ValidationError("vocabulary needs at least 8 tokens")

    @property
    def r_open(self) -> int:
        return self.size - 5

    @property
    def r_close(self) -> int:
        return self.size - 4

    @property
    def a_open(self) -> int:
        return self.size - 3

    @property
    def a_close(self) -> int:
        return self.size - 2

    @property
    def eos(self) -> int:
        return self.size - 1

    @property
    def fillers(self) -> tuple:
        return tuple(range(self.size - 5))

    @property
    def reserved(self) -> tuple:
        return (self.r_open, self.r_close, self.a_open, self.a_close, self.eos)

    @property
    def reasoning_fillers(self) -> tuple:
        fillers = self.fillers
        return fillers[:math.ceil(len(fillers) / 2)]

    @property
    def answer_fillers(self) -> tuple:
        fillers = self.fillers
        return fillers[math.ceil(len(fillers) / 2):]


def toy_format_reward(content_tokens, vocab: Vocab) -> float:
    """Token-level mirror of the strict tag reward: 1.0 iff exactly one
    R_OPEN..R_CLOSE A_OPEN..A_CLOSE template with nothing outside."""
    toks = tuple(int(t) for t in content_tokens)
    if not toks or vocab.eos in toks:
        return 0.0
    tags = (vocab.r_open, vocab.r_close, vocab.a_open, vocab.a_close)
    if any(toks.count(tag) != 1 for tag in tags):
        return 0.0
    ro, rc = toks.index(vocab.r_open), toks.index(vocab.r_close)
    ao, ac = toks.index(vocab.a_open), toks.index(vocab.a_close)
    # With exactly one of each tag and no EOS, pinning the tag positions
    # leaves only fillers between them.
    if ro == 0 and ro < rc and ao == rc + 1 and ao < ac and ac == len(toks) - 1:
        return 1.0
    return 0.0


@dataclass(frozen=True)
class Completion:
    """One sampled completion with its per-step entropies."""

    tokens: tuple              # includes the trailing EOS unless truncated
    entropies: np.ndarray      # per-step entropy of the plain softmax (nats)
    truncated: bool

    @property
    def content(self) -> tuple:
        """Tokens with the trailing EOS (when present) stripped."""
        if self.tokens and not self.truncated:
            return self.tokens[:-1]
        return self.tokens

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def mean_entropy(self) -> float:
        return float(np.mean(self.entropies)) if self.entropies.size else 0.0


@dataclass
class ParamGrad:
    """Gradient container aligned with ToyPolicy's parameter blocks."""

    embed: np.ndarray
    out: np.ndarray
    ctx_scale: np.ndarray
    prev_scale: np.ndarray

    @classmethod
    def zeros(cls, vocab_size: int, dim: int) -> "ParamGrad":
        return cls(np.zeros((vocab_size, dim)), np.zeros((dim, vocab_size)),
                   np.zeros(dim), np.zeros(dim))

    def add(self, other: "ParamGrad", scale: float = 1.0) -> "ParamGrad":
        self.embed += scale * other.embed
        self.out += scale * other.out
        self.ctx_scale += scale * other.ctx_scale
        self.prev_scale += scale * other.prev_scale
        return self

    def scaled(self, scale: float) -> "ParamGrad":
        return ParamGrad(self.embed * scale, self.out * scale,
                         self.ctx_scale * scale, self.prev_scale * scale)

    def global_norm(self) -> float:
        total = (np.sum(self.embed ** 2) + np.sum(self.out ** 2)
                 + np.sum(self.ctx_scale ** 2) + np.sum(self.prev_scale ** 2))
        return float(np.sqrt(total))


@dataclass(frozen=True)
class NextTokenTable:
    """Every next-token distribution of a policy over C contexts.

    Row 0 of a context is the first position; row r = 1..V follows token r-1.
    It describes the parameters the policy had when the table was built.
    """

    weights: np.ndarray   # (C, V) bag-mean weights of each context's tokens
    ctx: np.ndarray       # (C, d) context vectors, weights @ embed
    feats: np.ndarray     # (C, V+1, d) pre-softmax features
    logits: np.ndarray    # (C, V+1, V)
    logp: np.ndarray      # (C, V+1, V) plain log-softmax

    def seq_logprobs(self, counts: np.ndarray) -> np.ndarray:
        """(C, B) log-likelihood of each completion under each context."""
        flat = self.logp.reshape(self.logp.shape[0], -1)
        return flat @ counts.reshape(counts.shape[0], flat.shape[1]).T

    def summaries(self, ctx_idx, counts: np.ndarray) -> tuple:
        """(unit, norm): L2-normalised mean features of completion b under
        context ctx_idx[b], and the norm of each mean."""
        row_counts = counts.sum(axis=2)
        lengths = row_counts.sum(axis=1)
        if np.any(lengths == 0):
            raise ValidationError("hidden summary needs a non-empty completion")
        mean = np.einsum("br,brd->bd", row_counts, self.feats[ctx_idx]) / lengths[:, None]
        norm = np.linalg.norm(mean, axis=1)
        # A degenerate all-zero mean maps to a fixed unit vector so the
        # summary stays on the sphere.
        unit = np.zeros_like(mean)
        unit[:, 0] = 1.0
        ok = norm > 1e-300
        unit[ok] = mean[ok] / norm[ok, None]
        return unit, norm

    def summary_feat_grad(self, ctx_idx, counts: np.ndarray,
                          summary_grad: np.ndarray) -> np.ndarray:
        """(C, V+1, d) feature gradient of sum_b summary_grad[b] . summary_b.

        summary = v/|v| with v the mean feature, so each incoming gradient is
        pulled through the normalisation Jacobian (I - uu^T)/|v| and spread
        over the completion's feature rows; a degenerate summary gets none.
        """
        unit, norm = self.summaries(ctx_idx, counts)
        g = np.asarray(summary_grad, dtype=float)
        inv_norm = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 1e-300)
        g_v = (g - unit * np.sum(unit * g, axis=1, keepdims=True)) * inv_norm[:, None]
        row_counts = counts.sum(axis=2)
        share = row_counts / row_counts.sum(axis=1, keepdims=True)
        out = np.zeros(self.feats.shape)
        np.add.at(out, np.asarray(ctx_idx), share[:, :, None] * g_v[:, None, :])
        return out


class ToyPolicy:
    """Bag-of-context + previous-token autoregressive policy over a toy vocab."""

    def __init__(self, vocab: Vocab | None = None, dim: int = DEFAULT_DIM, *,
                 max_len: int = DEFAULT_MAX_LEN):
        self.vocab = vocab or Vocab()
        self.dim = dim
        if max_len < 1:
            raise ValidationError("max_len must be at least 1")
        self.max_len = max_len
        v = self.vocab.size
        self.embed = np.zeros((v, dim))
        self.out = np.zeros((dim, v))
        self.ctx_scale = np.ones(dim)
        self.prev_scale = np.ones(dim)

    # ---------- parameter plumbing ----------

    def init_params(self, seed: int, scale: float = 0.1) -> None:
        """Seeded small-noise init for embed/out.

        Exact zeros are a saddle (embed and out gate each other's gradients),
        so training starts from a near-uniform policy instead: logits stay
        O(scale^2), every template keeps probability close to V^-|y|.
        """
        rng = np.random.default_rng(seed)
        self.embed = scale * rng.standard_normal(self.embed.shape)
        self.out = scale * rng.standard_normal(self.out.shape)
        self.ctx_scale = np.ones(self.dim)
        self.prev_scale = np.ones(self.dim)

    def param_blocks(self) -> dict:
        return {"embed": self.embed, "out": self.out,
                "ctx_scale": self.ctx_scale, "prev_scale": self.prev_scale}

    def param_hash(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(self.param_blocks()):
            arr = self.param_blocks()[name]
            digest.update(name.encode())
            digest.update(str(arr.shape).encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()

    def clone(self) -> "ToyPolicy":
        twin = ToyPolicy(self.vocab, self.dim, max_len=self.max_len)
        twin.embed = self.embed.copy()
        twin.out = self.out.copy()
        twin.ctx_scale = self.ctx_scale.copy()
        twin.prev_scale = self.prev_scale.copy()
        return twin

    def add_scaled(self, grad: ParamGrad, scale: float) -> None:
        self.embed += scale * grad.embed
        self.out += scale * grad.out
        self.ctx_scale += scale * grad.ctx_scale
        self.prev_scale += scale * grad.prev_scale

    # ---------- the table kernel ----------

    def _check_tokens(self, tokens) -> np.ndarray:
        arr = np.asarray(tuple(int(t) for t in tokens), dtype=int)
        if arr.size and (arr.min() < 0 or arr.max() >= self.vocab.size):
            raise ValidationError(f"token out of vocabulary (size {self.vocab.size})")
        return arr

    def bag(self, contexts) -> np.ndarray:
        """(C, V) bag-mean token weights of each (prompt, principle); no parameters."""
        weights = np.zeros((len(contexts), self.vocab.size))
        for c, (prompt, principle) in enumerate(contexts):
            tokens = self._check_tokens(tuple(prompt) + tuple(principle))
            weights[c] = np.bincount(tokens, minlength=self.vocab.size) / max(1, tokens.size)
        return weights

    def forward(self, weights: np.ndarray) -> NextTokenTable:
        """Every next-token distribution of each bagged context under the current parameters."""
        ctx = weights @ self.embed
        prev = np.vstack([np.zeros(self.dim), self.prev_scale * self.embed])
        feats = (self.ctx_scale * ctx)[:, None, :] + prev[None, :, :]
        logits = feats @ self.out
        return NextTokenTable(weights, ctx, feats, logits, logits - _logsumexp_rows(logits))

    def table(self, contexts) -> NextTokenTable:
        """The forward pass over (prompt, principle) contexts: forward(bag(contexts))."""
        return self.forward(self.bag(contexts))

    def backward(self, table: NextTokenTable, coeffs: np.ndarray,
                 feat_grad: np.ndarray | None = None) -> ParamGrad:
        """Gradient of sum(coeffs * table.logp) + sum(feat_grad * table.feats).

        A completion scored under context c with weight w adds w times its
        transition counts to coeffs[c], so one call backpropagates any
        weighted sum of sequence log-likelihoods (and, through feat_grad, of
        hidden summaries) in one pass through the feature map.
        """
        v = self.vocab.size
        delta = coeffs - coeffs.sum(axis=2, keepdims=True) * np.exp(table.logp)
        grad_h = delta @ self.out.T
        if feat_grad is not None:
            grad_h = grad_h + feat_grad
        per_ctx = grad_h.sum(axis=1)
        per_prev = grad_h[:, 1:].sum(axis=0)
        return ParamGrad(
            embed=self.prev_scale * per_prev + table.weights.T @ (self.ctx_scale * per_ctx),
            out=table.feats.reshape(-1, self.dim).T @ delta.reshape(-1, v),
            ctx_scale=np.sum(per_ctx * table.ctx, axis=0),
            prev_scale=np.sum(per_prev * self.embed, axis=0))

    # ---------- views on the table ----------

    def token_logprobs(self, prompt, principle, completion) -> np.ndarray:
        """Per-token log-probabilities of the completion under the plain softmax."""
        tokens = self._check_tokens(completion)
        return self.table([(prompt, principle)]).logp[0, _table_rows(tokens), tokens]

    def sequence_logprobs_batch(self, prompt, principle, completions) -> tuple:
        """(sums, lengths) of sequence log-likelihoods for many completions at once."""
        counts = transition_counts(completions, self.vocab.size)
        sums = self.table([(prompt, principle)]).seq_logprobs(counts)[0]
        return sums, counts.sum(axis=(1, 2)).astype(int)

    def multi_context_logprob(self, contexts, completion) -> np.ndarray:
        """Sequence log-likelihood of one completion under many (prompt, principle)."""
        counts = transition_counts([completion], self.vocab.size)
        return self.table(contexts).seq_logprobs(counts)[:, 0]

    def next_token_distribution(self, prompt, principle, prev=None) -> np.ndarray:
        """Plain softmax next-token distribution (a valid probability vector)."""
        row = 0 if prev is None else int(self._check_tokens([prev])[0]) + 1
        probs = np.exp(self.table([(prompt, principle)]).logp[0, row])
        return probs / probs.sum()

    def hidden_summary(self, prompt, principle, completion) -> np.ndarray:
        """L2-normalised mean of per-token features over completion tokens."""
        counts = transition_counts([completion], self.vocab.size)
        return self.table([(prompt, principle)]).summaries([0], counts)[0][0]

    def hidden_summary_grad(self, prompt, principle, completion,
                            summary_grad: np.ndarray) -> ParamGrad:
        """Backpropagate a gradient w.r.t. the L2-normalised summary into params."""
        table = self.table([(prompt, principle)])
        counts = transition_counts([completion], self.vocab.size)
        feat_grad = table.summary_feat_grad([0], counts, np.atleast_2d(summary_grad))
        return self.backward(table, np.zeros_like(table.logp), feat_grad)

    def grad_seq_logprob(self, prompt, principle, completion) -> ParamGrad:
        """Analytic gradient of the sequence log-likelihood w.r.t. all blocks."""
        return self.weighted_grad_batch(prompt, principle, [tuple(completion)], [1.0])

    def weighted_grad_batch(self, prompt, principle, completions, coeffs) -> ParamGrad:
        """sum_i coeffs[i] * grad log p(completion_i | prompt, principle)."""
        counts = transition_counts(completions, self.vocab.size)
        coeffs = np.tensordot(np.asarray(coeffs, dtype=float), counts, axes=1)
        return self.backward(self.table([(prompt, principle)]), coeffs[None])

    # ---------- sampling ----------

    def sample_group(self, prompt, principle, group_size: int, seed) -> list:
        """group_size independent completions, deterministic for a fixed seed."""
        return self.sample_groups(self.table([(prompt, principle)]), [0],
                                  group_size, [seed])[0]

    def sample_groups(self, table: NextTokenTable, ctx_idx, group_size: int,
                      seeds) -> list:
        """One group of completions per table context ctx_idx[g], decoded together.

        Group g draws from its own stream default_rng(seeds[g]): one uniform
        per sampled token, handed to the group's active members in (position,
        member) order and inverted through the normalised cdf, which is how
        Generator.choice(p=...) would spend the same stream one token at a
        time.
        """
        if group_size < 2:
            raise ValidationError("group size must be at least 2")
        n_groups, v, eos = len(seeds), self.vocab.size, self.vocab.eos
        ctx = np.repeat(np.asarray(ctx_idx, dtype=int), group_size)
        n = ctx.size
        tokens = np.zeros((n, self.max_len), dtype=int)
        lengths = np.zeros(n, dtype=int)
        active = np.ones(n, dtype=bool)
        seen = np.zeros((n, v), dtype=bool)
        draws = np.stack([np.random.default_rng(s).random(self.max_len * group_size)
                          for s in seeds])
        used = np.zeros(n_groups, dtype=int)
        for t in range(self.max_len):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            prev_rows = tokens[idx, t - 1] + 1 if t else np.zeros(idx.size, dtype=int)
            logits = table.logits[ctx[idx], prev_rows]
            hit = seen[idx]
            logits = np.where(hit & (logits > 0), logits / REPETITION_PENALTY,
                              np.where(hit, logits * REPETITION_PENALTY, logits))
            live = active.reshape(n_groups, group_size)
            slot = (used[:, None] + np.cumsum(live, axis=1) - 1).ravel()
            used += live.sum(axis=1)
            chosen = _decode(logits, draws[idx // group_size, slot[idx]])
            tokens[idx, t] = chosen
            lengths[idx] += 1
            seen[idx, chosen] = True
            active[idx[chosen == eos]] = False
        ent_table = -np.sum(np.exp(table.logp) * table.logp, axis=2)
        ents = ent_table[ctx[:, None], _table_rows(tokens)]
        comps = [Completion(tuple(tokens[b, :lengths[b]].tolist()), ents[b, :lengths[b]],
                            bool(active[b])) for b in range(n)]
        return [comps[g * group_size:(g + 1) * group_size] for g in range(n_groups)]


def _decode(logits: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One token per row from the nucleus of mass TOP_P, by inverting its cdf at uniforms."""
    mass = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    probs = mass / mass.sum(axis=1, keepdims=True)
    order = np.argsort(-probs, axis=1, kind="stable")
    ranked = np.take_along_axis(probs, order, axis=1)
    keep_ranked = np.cumsum(ranked, axis=1) - ranked < TOP_P
    keep_ranked[:, 0] = True
    keep = np.zeros_like(keep_ranked)
    np.put_along_axis(keep, order, keep_ranked, axis=1)
    mass = np.where(keep, mass, 0.0)
    probs = mass / mass.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return np.sum(cdf <= uniforms[:, None], axis=1)


def transition_counts(completions, vocab_size: int) -> np.ndarray:
    """(B, V+1, V) counts of (table row, token) pairs in each completion."""
    lengths = np.array([len(c) for c in completions], dtype=int)
    tok = np.zeros((len(completions), max(lengths, default=0)), dtype=int)
    mask = np.arange(tok.shape[1]) < lengths[:, None]
    for b, comp in enumerate(completions):
        tok[b, :lengths[b]] = comp
    if np.any((tok[mask] < 0) | (tok[mask] >= vocab_size)):
        raise ValidationError(f"token out of vocabulary (size {vocab_size})")
    counts = np.zeros((len(completions), vocab_size + 1, vocab_size))
    batch = np.broadcast_to(np.arange(len(completions))[:, None], tok.shape)
    np.add.at(counts, (batch[mask], _table_rows(tok)[mask], tok[mask]), 1.0)
    return counts


def _table_rows(tokens: np.ndarray) -> np.ndarray:
    """Table row of each position: 0 first, then previous token + 1."""
    rows = np.zeros_like(tokens)
    rows[..., 1:] = tokens[..., :-1] + 1
    return rows


def _logsumexp_rows(logits: np.ndarray) -> np.ndarray:
    peak = np.max(logits, axis=-1, keepdims=True)
    return peak + np.log(np.sum(np.exp(logits - peak), axis=-1, keepdims=True))


# ---------- synthetic constitution-conditioned task ----------

@dataclass(frozen=True)
class ToyPrinciple:
    """A token-pattern principle; `prefers` are the gold fillers it biases."""

    pid: str
    tokens: tuple
    prefers: tuple = ()


@dataclass(frozen=True)
class TaskItem:
    prompt: tuple
    principle_id: str
    gold: tuple  # includes the trailing EOS


@dataclass(frozen=True)
class ToyTask:
    """Prompts, a positive principle per prompt, and biased gold continuations.

    Principle renderings use marker fillers that never appear in prompts or
    golds; the gold pools are the remaining fillers.  Keeping the supports
    disjoint is what lets a format-only warm start stay principle-agnostic:
    markers receive no gradient until the association terms provide one.
    """

    vocab: Vocab
    principles: tuple          # positive pool, ToyPrinciple
    items: tuple               # TaskItem
    gold_r_pool: tuple
    gold_a_pool: tuple
    bias: float = 0.8

    def __post_init__(self):
        ids = [p.pid for p in self.principles]
        if len(set(ids)) != len(ids):
            raise ValidationError("principle ids must be unique")
        known = set(ids)
        for item in self.items:
            if item.principle_id not in known:
                raise ValidationError(f"item references unknown principle {item.principle_id!r}")

    def principle(self, pid: str) -> ToyPrinciple:
        for p in self.principles:
            if p.pid == pid:
                return p
        raise KeyError(pid)



def gold_filler_pools(vocab: Vocab, principles) -> tuple:
    """Reasoning/answer filler pools minus every token used by a principle."""
    used = set()
    for p in principles:
        used.update(p.tokens)
    r_pool = tuple(t for t in vocab.reasoning_fillers if t not in used)
    a_pool = tuple(t for t in vocab.answer_fillers if t not in used)
    # Degenerate pattern sets that cover a whole pool fall back to sharing it.
    if not r_pool:
        r_pool = vocab.reasoning_fillers
    if not a_pool:
        a_pool = vocab.answer_fillers
    return r_pool, a_pool


def _assign_prefers(principles, r_pool, a_pool) -> tuple:
    """Positional preferred-filler assignment over the gold pools."""
    out = []
    for k, p in enumerate(principles):
        prefers = (r_pool[k % len(r_pool)], a_pool[k % len(a_pool)])
        out.append(ToyPrinciple(p.pid, p.tokens, prefers=prefers))
    return tuple(out)


def make_toy_principles(vocab: Vocab, count: int) -> tuple:
    """Distinct marker-token patterns; preferred fillers assigned positionally.

    Markers are the last two fillers of each pool; patterns are distinct
    multisets over them (the context encoder is a bag mean, so only the
    multiset matters).  The remaining fillers stay free for prompts and golds.
    """
    if count < 2:
        raise ValidationError("need at least two principles for shadows to exist")
    f_r, f_a = vocab.reasoning_fillers, vocab.answer_fillers
    m_r, m_a = f_r[-2:], f_a[-2:]
    pairs = [(i, j) for i in m_r for j in m_a]
    patterns = ([(i, j, i, j) for i, j in pairs]
                + [(i, j, j, j) for i, j in pairs]
                + [(i, i, i, j) for i, j in pairs])
    if count > len(patterns):
        raise ValidationError(f"at most {len(patterns)} distinct principle "
                              f"patterns for this vocabulary")
    raw = tuple(ToyPrinciple(f"pos{k}", patterns[k]) for k in range(count))
    r_pool, a_pool = gold_filler_pools(vocab, raw)
    return _assign_prefers(raw, r_pool, a_pool)


def principles_from_patterns(vocab: Vocab, patterns) -> tuple:
    """Token-pattern principles from (pid, tokens) pairs.

    Preferred gold fillers are assigned positionally over the pools left free
    by the patterns, so a principle's identity (its rendering) and the content
    it biases stay on disjoint token supports.
    """
    raw = []
    for pid, tokens in patterns:
        toks = tuple(int(t) for t in tokens)
        if any(t < 0 or t >= vocab.size for t in toks):
            raise ValidationError(f"principle {pid!r} uses out-of-vocab tokens")
        if any(t not in vocab.fillers for t in toks):
            raise ValidationError(f"principle {pid!r} uses reserved tokens")
        raw.append(ToyPrinciple(pid, toks))
    if len(raw) < 2:
        raise ValidationError("need at least two principles for shadows to exist")
    r_pool, a_pool = gold_filler_pools(vocab, raw)
    return _assign_prefers(tuple(raw), r_pool, a_pool)


def _gold_continuation(vocab: Vocab, prefers: tuple, r_pool, a_pool, bias: float,
                       rng: np.random.Generator) -> tuple:
    def fill(pool, pref, n):
        picks = []
        for _ in range(n):
            if pref is not None and rng.random() < bias:
                picks.append(pref)
            else:
                picks.append(int(pool[rng.integers(len(pool))]))
        return picks

    r_pref = prefers[0] if prefers else None
    a_pref = prefers[1] if len(prefers) > 1 else None
    r_n = int(rng.integers(1, 3))
    a_n = int(rng.integers(1, 3))
    toks = ([vocab.r_open] + fill(r_pool, r_pref, r_n)
            + [vocab.r_close, vocab.a_open]
            + fill(a_pool, a_pref, a_n) + [vocab.a_close, vocab.eos])
    return tuple(toks)


def make_toy_task(vocab: Vocab | None = None, *, n_principles: int = 4,
                  n_items: int = 32, prompt_len: int = 4, bias: float = 0.8,
                  seed: int = 0, principles: tuple | None = None) -> ToyTask:
    """Seeded synthetic task: random prompts, one positive principle each,
    format-valid golds whose fillers lean toward the principle's preferences."""
    vocab = vocab or Vocab()
    rng = np.random.default_rng(seed)
    if principles is None:
        principles = make_toy_principles(vocab, n_principles)
    r_pool, a_pool = gold_filler_pools(vocab, principles)
    prompt_pool = r_pool + a_pool
    items = []
    for i in range(n_items):
        prompt = tuple(int(prompt_pool[rng.integers(len(prompt_pool))])
                       for _ in range(prompt_len))
        principle = principles[i % n_principles]
        gold = _gold_continuation(vocab, principle.prefers, r_pool, a_pool,
                                  bias, rng)
        items.append(TaskItem(prompt, principle.pid, gold))
    return ToyTask(vocab, principles, tuple(items), r_pool, a_pool, bias=bias)


def format_pretrain_items(task: ToyTask, seed: int = 0,
                          bias: float = 0.15) -> list:
    """(prompt, principle, gold) triples with a deliberately weak filler bias.

    Teaches the tag grammar while leaving principle binding near chance.  The
    bias must not be zero: a perfectly principle-agnostic policy sits on a
    saddle of the contrastive objective (no preferred binding direction), the
    toy analog of a pretrained model's weak-but-nonzero principle
    associations.  The default keeps the step-0 contrastive bound well under
    0.01 nats while giving the association terms a direction to amplify.
    """
    rng = np.random.default_rng(seed)
    triples = []
    for item in task.items:
        principle = task.principle(item.principle_id)
        gold = _gold_continuation(task.vocab, principle.prefers, task.gold_r_pool,
                                  task.gold_a_pool, bias, rng)
        triples.append((item.prompt, principle.tokens, gold))
    return triples


def gold_items(task: ToyTask) -> list:
    """(prompt, principle tokens, gold) triples with the biased golds."""
    return [(item.prompt, task.principle(item.principle_id).tokens, item.gold)
            for item in task.items]


def mle_pretrain(policy: ToyPolicy, triples, epochs: int, lr: float) -> None:
    """Full-batch maximum-likelihood warm start on (prompt, principle, gold).

    Deterministic given the triples; each epoch takes one ascent step on the
    mean per-sequence log-likelihood, one backward pass over every triple.
    """
    counts = transition_counts([gold for _, _, gold in triples], policy.vocab.size)
    _mle_epochs(policy, [(prompt, principle) for prompt, principle, _ in triples],
                epochs, lr, lambda epoch: counts)


def warm_start(policy: ToyPolicy, task: ToyTask, epochs: int, lr: float,
               seed: int, bias: float = 0.05) -> None:
    """Format warm start with fresh golds every epoch.

    Resampling keeps the fitted conditionals at the true (weak) filler bias
    instead of overfitting one sample's noise into spurious principle
    binding: the policy arrives format-competent with a contrastive bound
    near chance but measurably off the no-binding saddle.  Only the golds
    change between epochs; the contexts are the task's items throughout.
    """
    def epoch_counts(epoch):
        triples = format_pretrain_items(task, seed=(seed, epoch), bias=bias)
        return transition_counts([gold for _, _, gold in triples], policy.vocab.size)

    _mle_epochs(policy, [(prompt, principle) for prompt, principle, _ in gold_items(task)],
                epochs, lr, epoch_counts)


def _mle_epochs(policy: ToyPolicy, contexts, epochs: int, lr: float, epoch_counts) -> None:
    """One ascent step per epoch on the mean log-likelihood of gold c under
    context c, with epoch_counts(epoch) the golds' transition counts; the
    contexts are checked and bagged once."""
    if epochs < 0 or lr < 0:
        raise ValidationError("epochs and lr must be nonnegative")
    if not contexts:
        return
    weights = policy.bag(contexts)
    for epoch in range(epochs):
        grad = policy.backward(policy.forward(weights), epoch_counts(epoch))
        policy.add_scaled(grad, lr / len(contexts))
