"""A minimal autoregressive policy with closed-form gradients, plus its synthetic task.

Architecture (deliberately tiny so every gradient is analytic):

    ctx        = mean of embedded prompt+principle tokens   (order-free bag)
    h_t        = ctx_scale * ctx + prev_scale * embed[y_{t-1}]   (h_0 drops the prev term)
    logits_t   = h_t @ out
    p(y_t|...) = softmax(logits_t)

Zero-initialised parameters give the uniform policy, so every token template
has probability V^{-|y|} > 0 from the start.  Decode knobs (temperature,
top-p, top-k, repetition penalty) shape sampling only; cached and recomputed
per-token log-probabilities always refer to the plain softmax distribution,
which is what ratio-based updates need from an old-policy snapshot.

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
    """One sampled completion with its generation-time cache."""

    tokens: tuple              # includes the trailing EOS unless truncated
    logprobs: np.ndarray       # cached per-token logprobs (old-policy snapshot)
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


class ToyPolicy:
    """Bag-of-context + previous-token autoregressive policy over a toy vocab."""

    def __init__(self, vocab: Vocab | None = None, dim: int = DEFAULT_DIM, *,
                 temperature: float = 1.0, top_p: float = 0.95, top_k: int = 64,
                 repetition_penalty: float = 1.1, max_len: int = DEFAULT_MAX_LEN):
        self.vocab = vocab or Vocab()
        self.dim = dim
        if temperature < 0:
            raise ValidationError("temperature cannot be negative")
        self.temperature = temperature
        self.top_p = top_p
        self.top_k = min(top_k, self.vocab.size)
        self.repetition_penalty = repetition_penalty
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
        twin = ToyPolicy(self.vocab, self.dim, temperature=self.temperature,
                         top_p=self.top_p, top_k=self.top_k,
                         repetition_penalty=self.repetition_penalty,
                         max_len=self.max_len)
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

    # ---------- forward passes ----------

    def _check_tokens(self, tokens) -> np.ndarray:
        arr = np.asarray(tuple(int(t) for t in tokens), dtype=int)
        if arr.size and (arr.min() < 0 or arr.max() >= self.vocab.size):
            raise ValidationError(f"token out of vocabulary (size {self.vocab.size})")
        return arr

    def context_vector(self, prompt, principle) -> np.ndarray:
        ctx_tokens = self._check_tokens(tuple(prompt) + tuple(principle))
        if ctx_tokens.size == 0:
            return np.zeros(self.dim)
        return self.embed[ctx_tokens].mean(axis=0)

    def _features(self, ctx: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """(T, d) pre-softmax features; step 0 has no previous-token term."""
        t = tokens.size
        feats = np.tile(self.ctx_scale * ctx, (t, 1))
        if t > 1:
            feats[1:] += self.prev_scale * self.embed[tokens[:-1]]
        return feats

    def token_logprobs(self, prompt, principle, completion) -> np.ndarray:
        """Per-token log-probabilities of the completion under the plain softmax."""
        tokens = self._check_tokens(completion)
        if tokens.size == 0:
            return np.zeros(0)
        ctx = self.context_vector(prompt, principle)
        logits = self._features(ctx, tokens) @ self.out
        log_sm = logits - _logsumexp_rows(logits)
        return log_sm[np.arange(tokens.size), tokens]

    def sequence_logprobs_batch(self, prompt, principle, completions) -> tuple:
        """(sums, lengths) of sequence log-likelihoods for many completions at once."""
        sums = np.zeros(len(completions))
        lengths = np.zeros(len(completions), dtype=int)
        if not completions:
            return sums, lengths
        ctx = self.context_vector(prompt, principle)
        tok, mask = _pad_tokens(completions, self.vocab.size)
        log_sm = self._padded_log_softmax(ctx, tok, mask)
        gathered = np.take_along_axis(log_sm, np.maximum(tok, 0)[:, :, None],
                                      axis=2)[:, :, 0]
        sums = np.sum(gathered * mask, axis=1)
        lengths = mask.sum(axis=1).astype(int)
        return sums, lengths

    def multi_context_logprob(self, contexts, completion) -> np.ndarray:
        """Sequence log-likelihood of one completion under many (prompt, principle)."""
        tokens = self._check_tokens(completion)
        if tokens.size == 0:
            return np.zeros(len(contexts))
        ctxs = np.stack([self.context_vector(p, c) for p, c in contexts])
        t = tokens.size
        feats = np.tile((self.ctx_scale * ctxs)[:, None, :], (1, t, 1))
        if t > 1:
            feats[:, 1:, :] += self.prev_scale * self.embed[tokens[:-1]]
        logits = feats @ self.out
        log_sm = logits - _logsumexp_rows(logits)
        return log_sm[:, np.arange(t), tokens].sum(axis=1)

    def next_token_distribution(self, prompt, principle, prev=None) -> np.ndarray:
        """Plain softmax next-token distribution (a valid probability vector)."""
        ctx = self.context_vector(prompt, principle)
        h = self.ctx_scale * ctx
        if prev is not None:
            h = h + self.prev_scale * self.embed[int(prev)]
        logits = h @ self.out
        probs = np.exp(logits - _logsumexp_rows(logits[None, :])[0])
        return probs / probs.sum()

    def hidden_summary(self, prompt, principle, completion) -> np.ndarray:
        """L2-normalised mean of per-token features over completion tokens."""
        tokens = self._check_tokens(completion)
        if tokens.size == 0:
            raise ValidationError("hidden summary needs a non-empty completion")
        ctx = self.context_vector(prompt, principle)
        mean = self._features(ctx, tokens).mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if norm <= 1e-300:
            # Degenerate all-zero feature; return a fixed unit vector so the
            # summary stays on the sphere.
            unit = np.zeros(self.dim)
            unit[0] = 1.0
            return unit
        return mean / norm

    def hidden_summary_grad(self, prompt, principle, completion,
                            summary_grad: np.ndarray) -> ParamGrad:
        """Backpropagate a gradient w.r.t. the L2-normalised summary into params.

        summary = v/|v| with v the mean per-token feature, so the incoming
        gradient is first pulled through the normalisation Jacobian
        (I - uu^T)/|v| and then through the (linear) feature map.
        """
        tokens = self._check_tokens(completion)
        if tokens.size == 0:
            raise ValidationError("hidden summary needs a non-empty completion")
        ctx_tokens = self._check_tokens(tuple(prompt) + tuple(principle))
        ctx = self.embed[ctx_tokens].mean(axis=0) if ctx_tokens.size else np.zeros(self.dim)
        feats = self._features(ctx, tokens)
        v = feats.mean(axis=0)
        norm = float(np.linalg.norm(v))
        grad = ParamGrad.zeros(self.vocab.size, self.dim)
        if norm <= 1e-300:
            return grad
        u = v / norm
        g_v = (np.asarray(summary_grad, dtype=float) - u * float(u @ summary_grad)) / norm
        t = tokens.size
        grad.ctx_scale += g_v * ctx
        prev_tokens = tokens[:-1]
        if prev_tokens.size:
            prev_mean = self.embed[prev_tokens].sum(axis=0) / t
            grad.prev_scale += g_v * prev_mean
            np.add.at(grad.embed, prev_tokens,
                      np.tile(self.prev_scale * g_v / t, (prev_tokens.size, 1)))
        if ctx_tokens.size:
            ctx_grad = (self.ctx_scale * g_v) / ctx_tokens.size
            np.add.at(grad.embed, ctx_tokens, np.tile(ctx_grad, (ctx_tokens.size, 1)))
        return grad

    def _padded_log_softmax(self, ctx, tok, mask) -> np.ndarray:
        b, t = tok.shape
        feats = np.tile(self.ctx_scale * ctx, (b, t, 1))
        if t > 1:
            prev = np.maximum(tok[:, :-1], 0)
            feats[:, 1:, :] += (self.prev_scale * self.embed[prev]) * mask[:, :-1, None]
        logits = feats @ self.out
        return logits - _logsumexp_rows(logits)

    # ---------- sampling ----------

    def sample_group(self, prompt, principle, group_size: int, seed) -> list:
        """group_size independent completions with cached per-token logprobs.

        Deterministic for a fixed seed.  Sampling applies the decode knobs;
        the cache stores plain-softmax logprobs for the chosen tokens.
        """
        if group_size < 2:
            raise ValidationError("group size must be at least 2")
        rng = np.random.default_rng(seed)
        ctx = self.context_vector(prompt, principle)
        base_h = self.ctx_scale * ctx
        seqs = [[] for _ in range(group_size)]
        logps = [[] for _ in range(group_size)]
        ents = [[] for _ in range(group_size)]
        done = [False] * group_size
        for step in range(self.max_len):
            for i in range(group_size):
                if done[i]:
                    continue
                h = base_h if not seqs[i] else base_h + self.prev_scale * self.embed[seqs[i][-1]]
                logits = h @ self.out
                log_sm = logits - _logsumexp_rows(logits[None, :])[0]
                probs = np.exp(log_sm)
                ents[i].append(float(-np.sum(probs * log_sm)))
                token = self._decode_one(logits, seqs[i], rng)
                seqs[i].append(token)
                logps[i].append(float(log_sm[token]))
                if token == self.vocab.eos:
                    done[i] = True
        group = []
        for i in range(group_size):
            truncated = not done[i]
            group.append(Completion(tuple(seqs[i]), np.asarray(logps[i]),
                                    np.asarray(ents[i]), truncated))
        return group

    def _decode_one(self, logits: np.ndarray, history, rng) -> int:
        logits = logits.astype(float).copy()
        if self.repetition_penalty != 1.0 and history:
            seen = np.unique(np.asarray(history, dtype=int))
            pos = logits[seen] > 0
            logits[seen[pos]] /= self.repetition_penalty
            logits[seen[~pos]] *= self.repetition_penalty
        if self.temperature == 0.0:
            return int(np.argmax(logits))
        logits = logits / self.temperature
        if self.top_k < logits.size:
            drop = np.argsort(logits, kind="stable")[:-self.top_k]
            logits[drop] = -np.inf
        probs = np.exp(logits - np.max(logits))
        probs /= probs.sum()
        if self.top_p < 1.0:
            order = np.argsort(-probs, kind="stable")
            cum = np.cumsum(probs[order])
            keep = cum - probs[order] < self.top_p
            keep[0] = True
            kept = order[keep]
            probs = np.zeros_like(probs)
            probs[kept] = np.exp(logits[kept] - np.max(logits[kept]))
            probs /= probs.sum()
        return int(rng.choice(probs.size, p=probs))

    # ---------- gradients ----------

    def grad_seq_logprob(self, prompt, principle, completion) -> ParamGrad:
        """Analytic gradient of the sequence log-likelihood w.r.t. all blocks."""
        return self.weighted_grad_batch(prompt, principle, [tuple(completion)], [1.0])

    def weighted_grad_batch(self, prompt, principle, completions, coeffs) -> ParamGrad:
        """sum_i coeffs[i] * grad log p(completion_i | prompt, principle).

        Vectorised over completions and steps; this is the hot path shared by
        the policy-gradient and auxiliary terms.
        """
        grad = ParamGrad.zeros(self.vocab.size, self.dim)
        completions = [tuple(int(t) for t in c) for c in completions]
        coeffs = np.asarray(coeffs, dtype=float)
        keep = [i for i, c in enumerate(completions) if len(c) > 0 and coeffs[i] != 0.0]
        if not keep:
            return grad
        completions = [completions[i] for i in keep]
        coeffs = coeffs[keep]
        ctx_tokens = self._check_tokens(tuple(prompt) + tuple(principle))
        ctx = self.embed[ctx_tokens].mean(axis=0) if ctx_tokens.size else np.zeros(self.dim)
        tok, mask = _pad_tokens(completions, self.vocab.size)
        b, t = tok.shape
        feats = np.tile(self.ctx_scale * ctx, (b, t, 1))
        prev = np.full((b, t), -1, dtype=int)
        if t > 1:
            prev[:, 1:] = tok[:, :-1]
        prev_valid = (prev >= 0) & mask.astype(bool)
        safe_prev = np.maximum(prev, 0)
        feats += (self.prev_scale * self.embed[safe_prev]) * prev_valid[:, :, None]
        logits = feats @ self.out
        p = np.exp(logits - _logsumexp_rows(logits))
        delta = -p
        rows = np.repeat(np.arange(b), t)
        cols = np.tile(np.arange(t), b)
        delta[rows, cols, np.maximum(tok, 0).ravel()] += 1.0
        delta *= (coeffs[:, None] * mask)[:, :, None]
        grad.out += np.einsum("btd,btv->dv", feats, delta)
        grad_h = np.einsum("dv,btv->btd", self.out, delta)
        grad_h_total = grad_h.sum(axis=(0, 1))
        grad.ctx_scale += grad_h_total * ctx
        prev_emb = self.embed[safe_prev] * prev_valid[:, :, None]
        grad.prev_scale += np.einsum("btd,btd->d", grad_h, prev_emb)
        # Previous-token channel into the embedding table.
        contrib = grad_h * (self.prev_scale * prev_valid[:, :, None])
        flat_idx = safe_prev.ravel()
        flat_ok = prev_valid.ravel()
        np.add.at(grad.embed, flat_idx[flat_ok], contrib.reshape(-1, self.dim)[flat_ok])
        # Context (bag mean) channel: every context token occurrence gets 1/n.
        if ctx_tokens.size:
            ctx_grad = (grad_h_total * self.ctx_scale) / ctx_tokens.size
            np.add.at(grad.embed, ctx_tokens, np.tile(ctx_grad, (ctx_tokens.size, 1)))
        return grad


def _logsumexp_rows(logits: np.ndarray) -> np.ndarray:
    peak = np.max(logits, axis=-1, keepdims=True)
    return peak + np.log(np.sum(np.exp(logits - peak), axis=-1, keepdims=True))


def _pad_tokens(completions, vocab_size: int) -> tuple:
    t_max = max(len(c) for c in completions)
    tok = np.full((len(completions), t_max), -1, dtype=int)
    mask = np.zeros((len(completions), t_max))
    for i, c in enumerate(completions):
        arr = np.asarray(c, dtype=int)
        if arr.size and (arr.min() < 0 or arr.max() >= vocab_size):
            raise ValidationError(f"token out of vocabulary (size {vocab_size})")
        tok[i, :arr.size] = arr
        mask[i, :arr.size] = 1.0
    return tok, mask


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
    mean per-sequence log-likelihood.
    """
    if epochs < 0 or lr < 0:
        raise ValidationError("epochs and lr must be nonnegative")
    n = len(triples)
    if n == 0:
        return
    for _ in range(epochs):
        total = ParamGrad.zeros(policy.vocab.size, policy.dim)
        for prompt, principle, gold in triples:
            total.add(policy.weighted_grad_batch(prompt, principle, [gold], [1.0]))
        policy.add_scaled(total, lr / n)


def warm_start(policy: ToyPolicy, task: ToyTask, epochs: int, lr: float,
               seed: int, bias: float = 0.05) -> None:
    """Format warm start with fresh golds every epoch.

    Resampling keeps the fitted conditionals at the true (weak) filler bias
    instead of overfitting one sample's noise into spurious principle
    binding: the policy arrives format-competent with a contrastive bound
    near chance but measurably off the no-binding saddle.
    """
    for epoch in range(epochs):
        triples = format_pretrain_items(task, seed=(seed, epoch), bias=bias)
        mle_pretrain(policy, triples, 1, lr)
