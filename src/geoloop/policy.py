"""A first-order toy policy computed as one next-token table.

Architecture (deliberately tiny so every gradient is analytic):

    ctx        = mean of embedded prompt+principle tokens   (order-free bag)
    h_t        = ctx_scale * ctx + prev_scale * embed[y_{t-1}]   (h_0 drops the prev term)
    logits_t   = h_t @ out
    p(y_t|...) = softmax(logits_t)

Every next-token distribution depends only on the context and the previous
token, so the forward pass is one table (`NextTokenTable`) of C x (V+1) rows
over C contexts: row 0 is the first position, row r = 1..V follows token r-1.
The table is an outer sum.  The feature of row r of context c is
cfeat[c] + pfeat[r], with cfeat = ctx_scale * ctx (C, d) and
pfeat = [0; prev_scale * embed] (V+1, d), so its logits are a[c] + b[r] with
a = cfeat @ out and b = pfeat @ out.  The table keeps only these 2-D factors.
A row's log-partition, max a[c] + max b[r] + log (ea @ eb.T)[c, r] with ea
and eb the max-shifted exponentials of a and b, is taken only when a view
first reads it.  Every sum over the (C, V+1, V) table is a matrix product of
factors; no (C, V+1, d) or (C, V+1, V) array is built on the way.

`ToyPolicy.bag` turns contexts into bag weights, which no parameter touches,
and `ToyPolicy.forward` turns those into the table.  A completion enters only
through its (row, token) transition counts.  The gradient of any weighted sum
of log-likelihoods and hidden summaries is one `ToyPolicy.backward` call; the
per-sequence methods are thin views on the table and that call.

Zero-initialised parameters give the uniform policy, so every token template
has probability V^{-|y|} > 0 from the start.  Sampling decodes with fixed
settings, nucleus TOP_P and repetition penalty REPETITION_PENALTY; they shape
the draw only, and every log-probability and entropy refers to the plain
softmax distribution.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat

import numpy as np

from . import rewards
from .errors import ValidationError
from .task import ToyTask, Vocab, gold_items, warm_start_golds

DEFAULT_DIM = 32
DEFAULT_MAX_LEN = 12
# Decode settings of every sample: nucleus mass and repetition penalty.
TOP_P = 0.95
REPETITION_PENALTY = 1.1
_TINY = np.finfo(float).tiny
_COUNT_EPOCHS = 8       # warm-start epochs whose golds share a bincount pass


@dataclass(frozen=True)
class Samples:
    """Completions decoded together; row b of each array is completion b."""

    tokens: np.ndarray      # (B, max_len) ids, zero past lengths[b]
    lengths: np.ndarray     # (B,) at least 1; the trailing EOS unless truncated
    truncated: np.ndarray   # (B,) True where max_len tokens hold no EOS
    entropies: np.ndarray   # (B, max_len) entropy of each position's plain softmax

    def counts(self, vocab_size: int) -> np.ndarray:
        """(B, V+1, V) transition counts, as transition_counts gives them."""
        return _count_transitions(self.tokens, self.lengths, vocab_size)

    def mean_entropies(self) -> np.ndarray:
        """The mean entropy of each row's positions.  Rows of one length are
        averaged together, so each row is summed as its own 1-D mean sums it.
        The lengths come from a sorted set: np.unique would import numpy.ma."""
        out = np.zeros(self.lengths.size)
        for n in sorted(set(self.lengths.tolist())):
            rows = self.lengths == n
            # .mean's sum and divide, without its Python-level wrapper.
            out[rows] = np.add.reduce(self.entropies[rows, :n], axis=1) / n
        return out


def toy_format_reward(content_tokens, vocab: Vocab) -> float:
    """The strict tag reward of one content: `rewards.format_ok` of the
    content ended by EOS, as one untruncated row."""
    row = np.array([*map(int, content_tokens), vocab.eos])
    ok = rewards.format_ok(row[None, :], np.array([row.size]), np.zeros(1, dtype=bool), vocab)
    return float(ok[0])


@dataclass
class ParamGrad:
    """Gradient container aligned with ToyPolicy's parameter blocks."""

    embed: np.ndarray
    out: np.ndarray
    ctx_scale: np.ndarray
    prev_scale: np.ndarray

    def scaled(self, scale: float) -> "ParamGrad":
        return ParamGrad(**{name: block * scale for name, block in vars(self).items()})

    def global_norm(self) -> float:
        return float(np.sqrt(sum((block ** 2).sum() for block in vars(self).values())))


@dataclass(frozen=True)
class NextTokenTable:
    """Every next-token distribution of a policy over C contexts, as the
    factors of the module docstring.  The log-partitions `lse` are taken when
    first read (the warm start's backward passes never read them).  It
    describes the parameters the policy had when `ToyPolicy.forward` last
    wrote it.
    """

    weights: np.ndarray   # (C, V) bag-mean weights of each context's tokens
    ctx: np.ndarray       # (C, d) context vectors, weights @ embed
    cfeat: np.ndarray     # (C, d) context features, ctx_scale * ctx
    pfeat: np.ndarray     # (V+1, d) row features, [0; prev_scale * embed]
    a: np.ndarray         # (C, V) context logits, cfeat @ out
    b: np.ndarray         # (V+1, V) row logits, pfeat @ out
    peak_a: np.ndarray    # (C, 1) max a per context
    peak_b: np.ndarray    # (V+1, 1) max b per row
    ea: np.ndarray        # (C, V) exp(a - max a) per context
    eb: np.ndarray        # (V+1, V) exp(b - max b) per row
    z: np.ndarray         # (C, V+1) shifted partitions, ea @ eb.T

    @cached_property
    def rows(self) -> tuple:
        """(C, 1, n) views of weights, ctx, cfeat, a, ea and z that forward writes through."""
        return tuple(x.reshape(-1, 1, x.shape[1]) for x in (self.weights, self.ctx, self.cfeat,
                                                            self.a, self.ea, self.z))

    @cached_property
    def lse(self) -> np.ndarray:
        """(C, V+1) log-partitions, max a + max b + log z."""
        return self.peak_a + self.peak_b.T + np.log(self.z)

    @property
    def logp(self) -> np.ndarray:
        """(C, V+1, V) plain log-softmax."""
        return self.a[:, None, :] + self.b[None, :, :] - self.lse[:, :, None]

    def seq_logprobs(self, counts: np.ndarray) -> np.ndarray:
        """(C, B) log-likelihood of each completion under each context; the
        counts' token and row sums are exact products with ones (`logit_sums`)."""
        v = counts.shape[2]
        tokens, rows = np.ones(v + 1) @ counts, counts @ np.ones(v)
        row_terms = counts.reshape(counts.shape[0], -1) @ self.b.ravel()
        return _by_row(self.a, tokens.T) - _by_row(self.lse, rows.T) + row_terms

    def context_logprobs(self, counts: np.ndarray, comp_idx) -> np.ndarray:
        """(C,) log-likelihood of completion comp_idx[c] under context c.

        Each term is one dot product, as in a one-completion seq_logprobs
        call, so entry c equals that call's and depends on no other row.
        """
        tokens, rows = counts.sum(axis=1)[comp_idx], counts.sum(axis=2)[comp_idx]
        row_terms = (counts.reshape(counts.shape[0], 1, -1) @ self.b.reshape(-1, 1))[:, 0, 0]
        return (_dots(self.a, tokens) - _dots(self.lse, rows)) + row_terms[comp_idx]

    def next_token_probs(self, c: int, row: int = 0) -> np.ndarray:
        """Plain softmax next-token distribution of row `row` of context c."""
        probs = self.ea[c] * self.eb[row]
        return probs / probs.sum()

    def entropies(self, ctx_idx) -> np.ndarray:
        """(len(ctx_idx), V+1) entropy in nats of every row of the chosen contexts."""
        a = self.a[ctx_idx] - self.peak_a[ctx_idx]
        b = self.b - self.peak_b
        ea, z = self.ea[ctx_idx], self.z[ctx_idx]
        return np.log(z) - ((ea * a) @ self.eb.T + ea @ (self.eb * b).T) / z

    def summaries(self, ctx_idx, row_counts: np.ndarray) -> tuple:
        """(unit, norm): L2-normalised mean features of completion b under
        context ctx_idx[b], and the norm of each mean.  row_counts[b] holds
        completion b's transition counts summed over tokens, (B, V+1)."""
        lengths = row_counts.sum(axis=1)
        if (lengths == 0).any():
            raise ValidationError("hidden summary needs a non-empty completion")
        mean = self.cfeat[ctx_idx] + (row_counts @ self.pfeat) / lengths[:, None]
        # np.linalg.norm's sum for real rows, without its wrapper.
        norm = np.sqrt(np.add.reduce(mean * mean, axis=1))
        # A degenerate all-zero mean maps to a fixed unit vector so the
        # summary stays on the sphere.
        unit = np.zeros_like(mean)
        unit[:, 0] = 1.0
        ok = norm > 1e-300
        unit[ok] = mean[ok] / norm[ok, None]
        return unit, norm

    def summary_feat_grad(self, ctx_idx, row_counts: np.ndarray, summaries: tuple,
                          summary_grad: np.ndarray) -> tuple:
        """(d/d cfeat, d/d pfeat) of sum_b summary_grad[b] . summary_b.

        `summaries` is the (unit, norm) pair of `summaries(ctx_idx, row_counts)`,
        which the caller has already built.  summary = v/|v| with v the mean
        feature, so each incoming gradient is pulled through the normalisation
        Jacobian (I - uu^T)/|v| and spread over the completion's feature rows:
        all of it onto its context's cfeat, and each row's share of the length
        onto that row's pfeat.  A degenerate summary gets none.
        """
        unit, norm = summaries
        g = np.asarray(summary_grad, dtype=float)
        inv_norm = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 1e-300)
        g_v = (g - unit * np.sum(unit * g, axis=1, keepdims=True)) * inv_norm[:, None]
        share = row_counts / row_counts.sum(axis=1, keepdims=True)
        ctx_grad = np.zeros_like(self.cfeat)
        np.add.at(ctx_grad, np.asarray(ctx_idx), g_v)
        return ctx_grad, share.T @ g_v


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
        for name, arr in sorted(self.param_blocks().items()):
            digest.update(name.encode())
            digest.update(str(arr.shape).encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()

    def clone(self) -> "ToyPolicy":
        twin = ToyPolicy(self.vocab, self.dim, max_len=self.max_len)
        for name, block in self.param_blocks().items():
            setattr(twin, name, block.copy())
        return twin

    def add_scaled(self, grad: ParamGrad, scale: float) -> None:
        for name, block in self.param_blocks().items():
            block += scale * getattr(grad, name)

    # ---------- the table kernel ----------

    def _check_tokens(self, tokens) -> np.ndarray:
        arr = np.asarray(tuple(int(t) for t in tokens), dtype=int)
        if arr.size and (arr.min() < 0 or arr.max() >= self.vocab.size):
            raise ValidationError(f"token out of vocabulary (size {self.vocab.size})")
        return arr

    def _token_counts(self, seqs) -> tuple:
        """((n, V) token counts, (n,) lengths) of token sequences, all checked
        together and counted with one bincount over row * V + token."""
        v = self.vocab.size
        lengths = np.array([len(seq) for seq in seqs], dtype=int)
        tokens = self._check_tokens(chain.from_iterable(seqs))
        rows = np.repeat(np.arange(lengths.size), lengths)
        counts = np.bincount(rows * v + tokens, minlength=lengths.size * v)
        return counts.reshape(-1, v), lengths

    def bag(self, contexts) -> np.ndarray:
        """(C, V) bag-mean token weights of each (prompt, principle); no parameters."""
        counts, lengths = self._token_counts([tuple(p) + tuple(q) for p, q in contexts])
        return counts / np.maximum(1, lengths)[:, None]

    def bag_grid(self, prompts, principles) -> np.ndarray:
        """(P, Q, V) bag weights of prompt i with principle j, equal to bag's:
        the counts are integers, so their sums and the division are exact."""
        p_counts, p_lengths = self._token_counts(prompts)
        q_counts, q_lengths = self._token_counts(principles)
        lengths = np.maximum(1, p_lengths[:, None] + q_lengths[None, :])
        return (p_counts[:, None, :] + q_counts[None, :, :]) / lengths[:, :, None]

    def forward(self, weights: np.ndarray, out: NextTokenTable | None = None) -> NextTokenTable:
        """Every next-token distribution of each bagged context under the current parameters.

        The log-partition of row r of context c is max a[c] + max b[r] +
        log z[c, r].  A shifted partition below the smallest normal float
        means the context and row logits disagree by more than the float
        range, and it is rejected before anything is divided by it.

        The arrays of a new table, or of `out`, a table of an earlier call on
        the same weights (its cached log-partitions dropped), are written in
        place; ctx, a and z row by row as `_by_row` takes them, through `rows`.
        """
        if out is None:
            (c, v), d = weights.shape, self.dim
            out = NextTokenTable(weights, np.empty((c, d)), np.empty((c, d)), np.zeros((v + 1, d)),
                                 *(np.empty(shape) for shape in ((c, v), (v + 1, v), (c, 1),
                                                                 (v + 1, 1), (c, v), (v + 1, v),
                                                                 (c, v + 1))))
        elif out.weights is not weights:
            raise ValidationError("out must be a table of the same weights")
        vars(out).pop("lse", None)
        w_rows, ctx_rows, cfeat_rows, a_rows, ea_rows, z_rows = out.rows
        np.matmul(w_rows, self.embed, out=ctx_rows)
        np.multiply(self.ctx_scale, out.ctx, out=out.cfeat)
        np.multiply(self.prev_scale, self.embed, out=out.pfeat[1:])
        np.matmul(cfeat_rows, self.out, out=a_rows)
        np.matmul(out.pfeat, self.out, out=out.b)
        np.maximum.reduce(out.a, axis=1, keepdims=True, out=out.peak_a)
        np.maximum.reduce(out.b, axis=1, keepdims=True, out=out.peak_b)
        np.exp(np.subtract(out.a, out.peak_a, out=out.ea), out=out.ea)
        np.exp(np.subtract(out.b, out.peak_b, out=out.eb), out=out.eb)
        np.matmul(ea_rows, out.eb.T, out=z_rows)
        if np.minimum.reduce(out.z, axis=None) < _TINY:
            raise ValidationError("next-token partition underflows: the logits span "
                                  "more than the float range")
        return out

    def table(self, contexts) -> NextTokenTable:
        """The forward pass over (prompt, principle) contexts: forward(bag(contexts))."""
        return self.forward(self.bag(contexts))

    def backward(self, table: NextTokenTable, sums: tuple, feat_grad: tuple | None = None,
                 out: ParamGrad | None = None) -> ParamGrad:
        """Gradient of sum(coeffs * table.logp) + sum(feat_grad[0] * table.cfeat)
        + sum(feat_grad[1] * table.pfeat), with sums = logit_sums(coeffs).

        A completion scored under context c with weight w adds w times its
        transition counts to coeffs[c], so one call backpropagates any
        weighted sum of sequence log-likelihoods (and, through feat_grad, of
        hidden summaries).  The logit gradient coeffs - n * softmax, with n
        the per-row sums of coeffs, reaches the two logit factors only through
        its sums over rows (da) and over contexts (db), and softmax is
        ea[c] * eb[r] / z[c, r], so both sums are 2-D products and coeffs
        enters only through its three sums.  A caller whose coeffs stay fixed
        over many passes takes the sums once.  The gradient is written into
        `out`'s blocks when it is given.
        """
        row_sums, token_sums, context_sums = sums
        n_over_z = row_sums / table.z
        da = token_sums - table.ea * (n_over_z @ table.eb)
        db = context_sums - table.eb * (n_over_z.T @ table.ea)
        grad_c, grad_p = da @ self.out.T, db @ self.out.T
        if feat_grad is not None:
            grad_c = grad_c + feat_grad[0]
            grad_p = grad_p + feat_grad[1]
        grad = out or ParamGrad(**{k: np.empty_like(v) for k, v in self.param_blocks().items()})
        np.add(self.prev_scale * grad_p[1:], table.weights.T @ (self.ctx_scale * grad_c),
               out=grad.embed)
        np.add(table.cfeat.T @ da, table.pfeat.T @ db, out=grad.out)
        np.add.reduce(grad_c * table.ctx, axis=0, out=grad.ctx_scale)
        np.add.reduce(grad_p[1:] * self.embed, axis=0, out=grad.prev_scale)
        return grad

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
        return self.table([(prompt, principle)]).next_token_probs(0, row)

    def hidden_summary(self, prompt, principle, completion) -> np.ndarray:
        """L2-normalised mean of per-token features over completion tokens."""
        rows = transition_counts([completion], self.vocab.size).sum(axis=2)
        return self.table([(prompt, principle)]).summaries([0], rows)[0][0]

    def hidden_summary_grad(self, prompt, principle, completion,
                            summary_grad: np.ndarray) -> ParamGrad:
        """Backpropagate a gradient w.r.t. the L2-normalised summary into params."""
        table = self.table([(prompt, principle)])
        rows = transition_counts([completion], self.vocab.size).sum(axis=2)
        feat_grad = table.summary_feat_grad([0], rows, table.summaries([0], rows),
                                            np.atleast_2d(summary_grad))
        return self.backward(
            table, logit_sums(np.zeros((1, self.vocab.size + 1, self.vocab.size))), feat_grad)

    def grad_seq_logprob(self, prompt, principle, completion) -> ParamGrad:
        """Analytic gradient of the sequence log-likelihood w.r.t. all blocks."""
        return self.weighted_grad_batch(prompt, principle, [tuple(completion)], [1.0])

    def weighted_grad_batch(self, prompt, principle, completions, coeffs) -> ParamGrad:
        """sum_i coeffs[i] * grad log p(completion_i | prompt, principle)."""
        counts = transition_counts(completions, self.vocab.size)
        coeffs = np.tensordot(np.asarray(coeffs, dtype=float), counts, axes=1)
        return self.backward(self.table([(prompt, principle)]), logit_sums(coeffs[None]))

    # ---------- sampling ----------

    def sample_group(self, prompt, principle, group_size: int, seed) -> Samples:
        """group_size independent completions, deterministic for a fixed seed."""
        return self.sample_groups(self.table([(prompt, principle)]), [0], group_size, [seed])

    def sample_groups(self, table: NextTokenTable, ctx_idx, group_size: int,
                      seeds) -> Samples:
        """One group of completions per table context ctx_idx[g], decoded
        together; group g is rows g * group_size to (g + 1) * group_size - 1.

        Group g draws from its own stream default_rng(seeds[g]): one uniform
        per sampled token, handed to the group's active members in (position,
        member) order and inverted through the cdf, which is how
        Generator.choice(p=...) would spend the same stream one token at a
        time.

        Each row of the groups' table is built once per call as two mass
        rows, exp(raw - m) and exp(pen - m): raw its logits, pen their
        repetition-penalised twin and m the largest raw logit.  A position
        mixes the two, so they share m; a position's masses are one `where`
        between two row gathers, decoded unnormalised.  REPETITION_PENALTY
        >= 1 makes pen <= raw, so no mass exceeds 1 and each position's total
        is at least its row's largest penalised mass.  The call is refused
        when that is below _TINY, the smallest normal float, for some row
        (logits beyond about 7 000 nats).  Each position decodes every row;
        a finished row decodes from a real table row into its own state
        only and writes token 0.
        """
        ctx_idx = np.asarray(ctx_idx, dtype=int)
        if group_size < 2 or ctx_idx.size == 0 or ctx_idx.size != len(seeds):
            raise ValidationError(f"need groups of at least 2, one seed per group and at least "
                                  f"one group, got groups of {group_size}, {ctx_idx.size} "
                                  f"contexts and {len(seeds)} seeds")
        n_groups, v, eos, m = ctx_idx.size, self.vocab.size, self.vocab.eos, self.max_len
        n = n_groups * group_size
        raw = (table.a[ctx_idx][:, None, :] + table.b[None]).reshape(-1, v)
        pen = np.where(raw > 0, raw / REPETITION_PENALTY, raw * REPETITION_PENALTY)
        peak = raw.max(axis=1, keepdims=True)
        e_raw, e_pen = np.exp(raw - peak), np.exp(pen - peak)
        if e_pen.max(axis=1).min() < _TINY:
            raise ValidationError("sampler masses underflow: the logits exceed the float range")
        group = np.repeat(np.arange(n_groups), group_size)
        row = group * (v + 1)
        after = row + 1
        cells = np.arange(0, n * v, v)
        draws = np.concatenate([np.random.default_rng(s).random(m * group_size)
                                for s in seeds])
        # One before each group's next unused uniform.
        offset = np.arange(n_groups) * (m * group_size) - 1
        # Position t's tokens are row t; a row's length is its first EOS plus one.
        tokens = np.zeros((m, n), dtype=int)
        active = np.ones(n, dtype=bool)
        seen = np.zeros((n, v), dtype=bool)
        for t in range(m):
            slot = offset[:, None] + active.reshape(n_groups, group_size).cumsum(axis=1)
            offset = slot[:, -1]
            mass = np.where(seen, e_pen.take(row, axis=0), e_raw.take(row, axis=0))
            chosen = _decode(mass, draws.take(slot.ravel()), cells)
            np.multiply(chosen, active, out=tokens[t])
            seen.put(cells + chosen, True)
            active &= chosen != eos
            if not active.any():
                break
            row = after + tokens[t]
        lengths = np.where(active, m, (tokens == eos).argmax(axis=0) + 1)
        tokens = tokens.T.copy()
        return Samples(tokens, lengths, active,
                       table.entropies(ctx_idx)[group[:, None], _table_rows(tokens)])


def _decode(mass: np.ndarray, uniforms: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """One token per row from the nucleus of mass TOP_P, by inverting its cdf at uniforms.

    A row of mass is its softmax times one factor, so dropping the ranks
    whose exclusive prefix reaches TOP_P times the row total, then counting
    the kept masses' index-order cdf entries up to uniforms times their
    total, draws the logit-domain decode's token: the rounding differs, so a
    token moves only if a uniform or a prefix is within an ulp of a boundary.
    Ranks are gathered and the dropped mass zeroed through flat indices,
    starts[i] = i * V.  The top rank's exclusive prefix is x - x = 0.0, so
    the nucleus keeps it.  A normal row total keeps u * total below the
    total for every uniform u < 1, so no row draws past V - 1.
    """
    flat = (-mass).argsort(axis=1, kind="stable") + starts[:, None]
    ranked = mass.take(flat)
    prefix = ranked.cumsum(axis=1)
    mass.put(flat[prefix - ranked >= TOP_P * prefix[:, -1:]], 0.0)
    cdf = mass.cumsum(axis=1)
    return (cdf <= uniforms[:, None] * cdf[:, -1:]).sum(axis=1)


def transition_counts(completions, vocab_size: int) -> np.ndarray:
    """(B, V+1, V) counts of (table row, token) pairs in each completion."""
    lengths = np.array([len(c) for c in completions], dtype=int)
    tok = np.zeros((len(completions), max(lengths, default=0)), dtype=int)
    for b, comp in enumerate(completions):
        tok[b, :lengths[b]] = comp
    return _count_transitions(tok, lengths, vocab_size)


def logit_sums(coeffs: np.ndarray) -> tuple:
    """The three sums of (C, V+1, V) coefficients that `ToyPolicy.backward` reads:
    (C, V+1) over tokens, (C, V) over rows and (V+1, V) over contexts.

    The token and row sums are products with ones: numpy reduces a
    length-16 inner axis several times slower.
    """
    v = coeffs.shape[2]
    return coeffs @ np.ones(v), np.ones(v + 1) @ coeffs, coeffs.sum(axis=0)


def _count_transitions(tok: np.ndarray, lengths: np.ndarray, vocab_size: int) -> np.ndarray:
    """Transition counts of the first lengths[b] tokens of each row of tok,
    one bincount over the (row, table row, token) keys."""
    mask = np.arange(tok.shape[1]) < lengths[:, None]
    real = tok[mask]
    if ((real < 0) | (real >= vocab_size)).any():
        raise ValidationError(f"token out of vocabulary (size {vocab_size})")
    n, v = tok.shape[0], vocab_size
    keys = (np.arange(n)[:, None] * (v + 1) + _table_rows(tok)) * v + tok
    return np.bincount(keys[mask], minlength=n * (v + 1) * v).reshape(n, v + 1, v).astype(float)


def _count_sums(tok: np.ndarray, lengths: np.ndarray, vocab_size: int):
    """Yields `logit_sums(_count_transitions(tok[e], lengths[e], vocab_size))`
    for each epoch e of (E, C, L) golds in turn, counted _COUNT_EPOCHS epochs
    to a pass: each sum of a pass is one bincount of the (epoch, context, row,
    token) keys.

    Every position is keyed, with weight 1.0 for the first lengths[e, c] of
    row c and 0.0 for the padding; the counts are integers, so the sums are
    equal exactly.
    """
    v = vocab_size
    for start in range(0, len(tok), _COUNT_EPOCHS):
        # Small-int tokens go through float64: their direct cast to intp maps
        # 64 KiB of numpy's cast loops that nothing else in a run uses.
        part = tok[start:start + _COUNT_EPOCHS].astype(float).astype(np.intp)
        rows = _table_rows(part)
        n_ep, n_ctx, width = part.shape
        ctx = np.arange(n_ep * n_ctx).reshape(n_ep, n_ctx, 1)
        real = (np.arange(width) < lengths[start:start + _COUNT_EPOCHS, :, None]).ravel()

        def count(keys, *shape):
            return np.bincount(keys.ravel(), real, minlength=n_ep * shape[0] * shape[1]
                               ).reshape(n_ep, *shape)

        yield from zip(count(ctx * (v + 1) + rows, n_ctx, v + 1), count(ctx * v + part, n_ctx, v),
                       count((np.arange(n_ep)[:, None, None] * (v + 1) + rows) * v + part,
                             v + 1, v))


def _by_row(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m one row of x at a time: a 2-D BLAS product can round row c
    differently depending on how many rows share the call; row by row, a
    context's table and scores do not depend on which other contexts are in it."""
    return (x[:, None, :] @ m)[:, 0]


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products x[c] . y[c], each its own BLAS dot call."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _table_rows(tokens: np.ndarray) -> np.ndarray:
    """Table row of each position: 0 first, then previous token + 1."""
    rows = np.zeros_like(tokens)
    rows[..., 1:] = tokens[..., :-1] + 1
    return rows


def mle_pretrain(policy: ToyPolicy, triples, epochs: int, lr: float) -> None:
    """Full-batch maximum-likelihood warm start on (prompt, principle, gold).

    Deterministic given the triples; each epoch takes one ascent step on the
    mean per-sequence log-likelihood, one backward pass over every triple.
    The golds are fixed, so their count sums are taken once.
    """
    sums = logit_sums(transition_counts([gold for _, _, gold in triples],
                                        policy.vocab.size))
    _mle_epochs(policy, [(prompt, principle) for prompt, principle, _ in triples],
                epochs, lr, repeat(sums))


def warm_start(policy: ToyPolicy, task: ToyTask, epochs: int, lr: float,
               seed: int, bias: float) -> None:
    """Format warm start with fresh golds every epoch.

    Resampling keeps the fitted conditionals at the true (weak) filler bias
    instead of overfitting one sample's noise into spurious principle
    binding: the policy arrives format-competent with a contrastive bound
    near chance but measurably off the no-binding saddle.  The bias must not
    be zero: a perfectly principle-agnostic policy sits on a saddle of the
    contrastive objective (no preferred binding direction), the toy analog of
    a pretrained model's weak-but-nonzero principle associations.

    Epoch e's golds come from the stream seeded (seed, e).  They do not
    depend on the policy, so `task.warm_start_golds` draws them all up front;
    the contexts are the task's items throughout.
    """
    tokens, lengths = warm_start_golds(task, epochs, seed, bias)
    _mle_epochs(policy, [(prompt, principle) for prompt, principle, _ in gold_items(task)],
                epochs, lr, _count_sums(tokens, lengths, policy.vocab.size))


def _mle_epochs(policy: ToyPolicy, contexts, epochs: int, lr: float, epoch_sums) -> None:
    """One ascent step per epoch on the mean log-likelihood of gold c under
    context c, with epoch_sums yielding each epoch's `logit_sums` of the
    golds' transition counts; the contexts are checked and bagged once.

    Each epoch's table and gradient are written over the last epoch's, and
    the parameters and the gradient each sit in one flat vector, so the
    update is one multiply and one add, elementwise as `add_scaled` makes
    it.  The policy keeps its blocks as views of that vector.
    """
    if epochs < 0 or lr < 0:
        raise ValidationError("epochs and lr must be nonnegative")
    if not contexts:
        return
    weights = policy.bag(contexts)
    params, blocks = _flat_blocks(policy.param_blocks())
    for name, block in blocks.items():
        setattr(policy, name, block)
    grad_flat, grad_blocks = _flat_blocks(blocks)
    grad, table, scale = ParamGrad(**grad_blocks), None, lr / len(contexts)
    for sums in islice(epoch_sums, epochs):
        table = policy.forward(weights, out=table)
        policy.backward(table, sums, out=grad)
        params += scale * grad_flat


def _flat_blocks(blocks: dict) -> tuple:
    """One vector holding the blocks' values in order, and views of it
    shaped as each block."""
    flat = np.concatenate([block.ravel() for block in blocks.values()])
    parts = np.split(flat, np.cumsum([block.size for block in blocks.values()])[:-1])
    return flat, {name: part.reshape(block.shape)
                  for (name, block), part in zip(blocks.items(), parts)}
