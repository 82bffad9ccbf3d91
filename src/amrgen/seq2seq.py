"""The encoder-decoder model over `encoders` and `decoder`: teacher-forced
training, decoding and sentence scoring. A training batch is one tape: the
encoder runs once over all of its examples, and the decoder's first state,
its recurrence and its output layer with the loss run as one tape entry
each. Runs are bit-reproducible for a fixed seed.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import tensor as T
from .decoder import (EncoderRows, decoder_batch, decoder_step, initial_state, output_nll,
                      output_rows)
from .encoders import EncoderConfig, LstmCell, StackEncoder
from .tensor import Tensor
from .transforms import ExampleRepr, deanonymize
from .vocab import BOS, EOS, SOURCE_SPECIALS, TARGET_SPECIALS, UNK, Vocab


class NumericError(RuntimeError):
    """Divergent (non-finite) loss during training."""

    def __init__(self, message, batch_id=None):
        super().__init__(message)
        self.batch_id = batch_id


@dataclass(frozen=True)
class TrainSettings:
    lr: float = 1.0
    lr_decay: float = 0.8
    batch_size: int = 100
    max_epochs: int = 30
    patience: int = 5
    clip_norm: float = 5.0
    unk_threshold: int = 2
    eval_every: int = 1

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience", "eval_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "clip_norm"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


@dataclass
class TrainExample:
    id: str
    repr: ExampleRepr
    target: tuple  # tokenized, lowercased, anonymized reference
    reference: tuple  # raw tokenized reference (for BLEU after deanonymization)
    anon_map: tuple = field(default_factory=tuple)


class Seq2SeqModel:
    def __init__(self, config: EncoderConfig, src_vocab: Vocab, tgt_vocab: Vocab, seed: int = 0,
                 arrays=None):
        """Parameters are drawn from seed or, given arrays (a checkpoint's),
        taken from there without a copy (see ParamStore)."""
        self.config = config
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        rng = np.random.default_rng(seed) if arrays is None else None
        store = self.store = T.ParamStore(rng, arrays)
        d, h = config.embedding_dim, config.hidden_dim
        self.encoder = StackEncoder(config, src_vocab, store)
        self.tgt_embedding = store.uniform("tgt_embedding", (len(tgt_vocab), d))
        self.cell = LstmCell(d + h, h, store, "decoder")
        self.W_a = store.uniform("W_a", (h, h))
        self.U_a = store.uniform("U_a", (h, h))
        self.b_a = store.zeros("b_a", (1, h))
        self.v_a = store.uniform("v_a", (h, 1))
        self.W_init = store.uniform("W_init", (h, h))
        self.b_init = store.zeros("b_init", (1, h))
        self.W_o = store.uniform("W_o", (2 * h, h))
        self.b_o = store.zeros("b_o", (1, h))
        self.W_v = store.uniform("W_v", (h, len(tgt_vocab)))
        self.b_v = store.zeros("b_v", (1, len(tgt_vocab)))
        self._last = (None, None, None)  # see _encoded

    def params(self) -> dict:
        return self.store.params

    # -- decoding machinery -------------------------------------------------

    def _encode(self, examples, rng=None):
        """The examples' encoder rows, one example after another, their
        projection by W_a, each example's row count and the decoder's first
        states."""
        enc = self.encoder.encode([ex.repr for ex in examples], rng)
        sizes = [len(ex.repr.sequence) for ex in examples]
        return (enc, T.matmul(enc, self.W_a), sizes,
                initial_state(enc, sizes, self.W_init, self.b_init))

    def _encoded(self, ex: TrainExample):
        """`_encode([ex])` without dropout, for decoding and scoring. The
        model keeps the last one, keyed on the ExampleRepr object itself,
        which the entry holds so that its identity cannot be reused, and on
        `store.updates`: encoding another example replaces it, and an
        `sgd_step` makes it stale."""
        held, updates, encoding = self._last
        if held is not ex.repr or updates != self.store.updates:
            encoding = self._encode([ex])
            self._last = (ex.repr, self.store.updates, encoding)
        return encoding

    def _teacher_forced(self, encoding, token_lists):
        """The output layer's input rows [s ; ctx] of each example's tokens +
        EOS, one example after another, and the target ids of each, feeding
        the reference token back in at every step, from the examples'
        `_encode`. The recurrence runs once over the batch."""
        bos, eos = self.tgt_vocab.index(BOS), self.tgt_vocab.index(EOS)
        targets = [self.tgt_vocab.indices(tokens) + [eos] for tokens in token_lists]
        enc, enc_proj, sizes, s0 = encoding
        rows = decoder_batch(
            [[bos] + ids[:-1] for ids in targets], s0, enc, enc_proj, sizes, self.tgt_embedding,
            self.cell.W, self.cell.U, self.cell.b, self.U_a, self.b_a, self.v_a)
        return rows, targets

    def batch_loss(self, examples, rng=None) -> Tensor:
        """The sum over the examples, in order, of each one's mean token
        negative log-likelihood of its target, teacher-forced. The encoder
        and the first decoder state run once over the batch; dropout draws
        from rng in the order of encoding the examples one by one."""
        rows, targets = self._teacher_forced(self._encode(examples, rng),
                                             [ex.target for ex in examples])
        return output_nll(rows, [i for ids in targets for i in ids], list(map(len, targets)),
                          self.W_o, self.b_o, self.W_v, self.b_v)

    def sequence_loss(self, ex: TrainExample, rng=None) -> Tensor:
        """Mean token negative log-likelihood of the target, teacher-forced."""
        return self.batch_loss([ex], rng)

    def score_sentence(self, ex: TrainExample, tokens) -> float:
        """Total log-probability of the token sequence (EOS included)."""
        rows, (targets,) = self._teacher_forced(self._encoded(ex), [tokens])
        log_probs = output_rows(rows.data, self.W_o.data, self.b_o.data, self.W_v.data,
                                self.b_v.data)
        return float(log_probs[np.arange(len(targets)), targets].sum())

    def greedy_decode(self, ex: TrainExample, max_len: int = None):
        """Beam search with a beam of 1; see beam_decode."""
        return self.beam_decode(ex, beam=1, max_len=max_len)

    def beam_decode(self, ex: TrainExample, beam: int = 5, max_len: int = None):
        """Length-normalized beam search that carries the greedy path as one
        more hypothesis, which always takes the first argmax. Returns
        (tokens, log-prob, truncated) of the best of the greedy path and the
        finished or length-capped beam hypotheses under log-prob / (len + 1);
        greedy wins ties, so the result is never worse than the greedy path
        it carries, and beam=1 is greedy decoding. truncated means the result
        hit max_len before EOS.

        Each search step is one `_step` call over every distinct live prefix:
        the greedy path's first, while it is live, then the other beam
        hypotheses'. A path carries its state as a row of the previous step's
        (ctx, s, c) arrays, and every row attends over one shared rank of
        the example's encoder rows, never a copy per path. With beam=1 the
        greedy path is the whole search and steps one row at a time. With a
        larger beam its row takes the rounding of the larger product, so the
        greedy path a beam carries can differ from greedy_decode's in the
        last bits of its log-prob, and in its tokens where two next ids tie
        to within that rounding.

        The search stops once no live hypothesis can beat or tie a finished
        result: log-probs only fall and a result is divided by at most
        max_len + 1, so no descendant of a hypothesis with log-prob L scores
        above L / (max_len + 1), and an earlier result wins a tie.
        """
        if beam < 1:
            raise ValueError(f"beam must be >= 1, got {beam}")
        if max_len is None:
            max_len = 2 * len(ex.repr.sequence) + 10
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        enc, enc_proj, sizes, s0 = self._encoded(ex)
        att = EncoderRows(enc.data, enc_proj.data, sizes, [0])  # shared by every path
        eos = self.tgt_vocab.index(EOS)
        zero = np.zeros((1, self.config.hidden_dim))
        state = [zero, s0.data, zero]
        # a path: (BOS + token ids, log-prob); a hypothesis adds the row of
        # state that holds its (ctx, s, c) before its last id, and the greedy
        # path's is row 0
        greedy = ((self.tgt_vocab.index(BOS),), 0.0)
        hyps = [(*greedy, 0)] if beam > 1 else []
        done = []  # done[0] is the greedy result once it has finished
        for _ in range(max_len):
            live = greedy[0][-1] != eos
            if not live and (
                    not hyps or max(map(_normalized, done)) >= hyps[0][1] / (max_len + 1)):
                hyps = []
                break
            # the ids and state rows to step, and each hypothesis's row of the step
            token_ids, rows, at = ([greedy[0][-1]], [0], []) if live else ([], [], [])
            for ids, _, row in hyps:
                if live and ids == greedy[0]:
                    at.append(0)
                else:
                    at.append(len(rows))
                    token_ids.append(ids[-1])
                    rows.append(row)
            if beam > 1:  # with beam=1, state is the greedy path's one row
                state = [a[rows] for a in state]
            log_probs, *state = self._step(token_ids, *state, att)
            if live:
                idx = int(log_probs[0].argmax())
                greedy = (greedy[0] + (idx,), greedy[1] + float(log_probs[0, idx]))
                if idx == eos:
                    done.insert(0, (greedy[0][1:-1], greedy[1], False))
            if not hyps:
                continue
            # each hypothesis's `beam` best next ids, ties in argsort()[::-1]
            # order, then one stable sort of all of them by log-prob
            log_probs = log_probs[at]
            top = log_probs.argsort(axis=1)[:, :-beam - 1:-1]
            picked = log_probs[np.arange(len(hyps))[:, None], top].tolist()
            candidates = [(logp + value, ids, idx, row)
                          for (ids, logp, _), row, values, idxs in zip(hyps, at, picked,
                                                                       top.tolist())
                          for value, idx in zip(values, idxs)]
            candidates.sort(key=_FIRST, reverse=True)
            hyps = []
            for logp, ids, idx, row in candidates:
                if idx == eos:
                    done.append((ids[1:], logp, False))
                else:
                    hyps.append((ids + (idx,), logp, row))
                    if len(hyps) >= beam:
                        break
        if greedy[0][-1] != eos:
            done.insert(0, (greedy[0][1:], greedy[1], True))
        results = done + [(ids[1:], logp, True) for ids, logp, _ in hyps]
        ids, logp, truncated = max(results, key=_normalized)
        return [self.tgt_vocab.token(i) for i in ids], logp, truncated

    def _step(self, token_ids, ctx, s, c, att):
        """`decoder.decoder_step` with the model's weights, each row of ctx,
        s and c attending over its rank of att, a `decoder.EncoderRows`."""
        weights = (self.tgt_embedding, self.cell.W, self.cell.U, self.cell.b, self.U_a, self.b_a,
                   self.v_a, self.W_o, self.b_o, self.W_v, self.b_v)
        return decoder_step(token_ids, ctx, s, c, att, *(p.data for p in weights))


_FIRST = itemgetter(0)


def _normalized(result) -> float:
    return result[1] / (len(result[0]) + 1)


def generate(model: Seq2SeqModel, ex: TrainExample, beam: int = 1, max_len: int = None):
    """Decode and de-anonymize one example; returns (tokens, truncated)."""
    tokens, _, truncated = model.beam_decode(ex, beam=beam, max_len=max_len)
    return deanonymize(tokens, ex.anon_map), truncated


def generate_all(model: Seq2SeqModel, examples, beam: int = 1):
    """`generate` over the examples, one after another: the one decode loop
    of the CLI and of training's dev BLEU. Yields (tokens, truncated) per
    example as it is decoded."""
    for ex in examples:
        yield generate(model, ex, beam=beam)


# --------------------------------------------------------------------------
# Vocabulary and example assembly


def build_vocabs(examples, unk_threshold: int = 2):
    src = Vocab.build(
        (ex.repr.sequence.tokens for ex in examples), min_freq=1, specials=SOURCE_SPECIALS
    )
    tgt = Vocab.build(
        (ex.target for ex in examples), min_freq=unk_threshold, specials=TARGET_SPECIALS
    )
    return src, tgt


# --------------------------------------------------------------------------
# Training


@dataclass
class Checkpoint:
    config: EncoderConfig
    src_vocab: Vocab
    tgt_vocab: Vocab
    arrays: dict  # name -> ndarray
    meta: dict

    def save(self, path):
        manifest = {
            "config": self.config.to_dict(),
            "src_vocab": list(self.src_vocab.itos),
            "tgt_vocab": list(self.tgt_vocab.itos),
            "meta": self.meta,
        }
        T.save_arrays(path, manifest, self.arrays)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a saved checkpoint. A damaged archive raises
        zipfile.BadZipFile, KeyError or another ValueError."""
        manifest, arrays = T.load_arrays(path)
        return cls(
            config=EncoderConfig.from_dict(manifest["config"]),
            src_vocab=_checked_vocab(manifest["src_vocab"], SOURCE_SPECIALS, "source"),
            tgt_vocab=_checked_vocab(manifest["tgt_vocab"], TARGET_SPECIALS, "target"),
            arrays=arrays,
            meta=manifest["meta"],
        )

    def build_model(self) -> Seq2SeqModel:
        """The model of the saved configuration with the saved parameters;
        a ValueError when the arrays do not match it by name and shape. The
        model's parameters are this checkpoint's arrays, not copies: a model
        whose data is written in place must be built from copied arrays."""
        model = Seq2SeqModel(self.config, self.src_vocab, self.tgt_vocab, arrays=self.arrays)
        if set(model.params()) != set(self.arrays):
            raise ValueError("checkpoint parameter names do not match the configuration")
        return model


def _checked_vocab(itos, specials, side: str) -> Vocab:
    """The Vocab of a checkpoint's token list, which build_vocabs made: the
    special tokens first, then distinct strings."""
    if not isinstance(itos, list) or not all(isinstance(tok, str) for tok in itos):
        raise ValueError(f"{side} vocabulary is not a list of strings")
    if tuple(itos[: len(specials)]) != specials:
        raise ValueError(f"{side} vocabulary does not start with {' '.join(specials)}")
    if len(set(itos)) != len(itos):
        raise ValueError(f"{side} vocabulary holds a token twice")
    return Vocab(itos=tuple(itos))


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed is one that numpy's generators take."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def train(
    train_examples,
    dev_examples,
    config: EncoderConfig,
    seed: int = 0,
    settings: TrainSettings = TrainSettings(),
    log_sink=None,
):
    """Teacher-forced SGD training with dev-BLEU-driven lr decay.

    Returns (checkpoint, log) where log is a list of per-epoch dicts: the
    mean batch loss, dev BLEU, learning rate, the mean and max gradient norm
    before clipping over the epoch's batches, and the count of target tokens
    trained on with the share of them that the target vocabulary maps to
    UNK. Timing is reported through log_sink only, keeping the structured
    log reproducible for a fixed seed.
    """
    from .evaluation import corpus_bleu

    check_seed(seed)
    if not train_examples:
        raise ValueError("empty training corpus")
    if not dev_examples:
        dev_examples = train_examples
    src_vocab, tgt_vocab = build_vocabs(train_examples, settings.unk_threshold)
    model = Seq2SeqModel(config, src_vocab, tgt_vocab, seed=seed)
    store = model.store
    store.pack()
    lr = float(settings.lr)
    shuffle_rng = np.random.default_rng(seed + 1)
    dropout_rng = np.random.default_rng(seed + 2)

    best_bleu = -1.0
    best_theta = store.theta.copy()
    best_epoch = 0
    stale = 0
    log = []

    def dev_bleu() -> float:
        hyps = [tokens for tokens, _ in generate_all(model, dev_examples)]
        return corpus_bleu(hyps, [list(ex.reference) for ex in dev_examples])

    tgt_tokens = sum(len(ex.target) for ex in train_examples)
    unk = tgt_vocab.index(UNK)
    tgt_unks = sum(tgt_vocab.indices(ex.target).count(unk) for ex in train_examples)
    order = list(range(len(train_examples)))
    for epoch in range(1, settings.max_epochs + 1):
        started = time.monotonic()
        shuffle_rng.shuffle(order)
        epoch_losses = []
        grad_norms = []
        for start in range(0, len(order), settings.batch_size):
            batch = [train_examples[idx] for idx in order[start : start + settings.batch_size]]
            with T.Tape() as tape:  # one tape: the gradients of the examples' losses sum
                loss = model.batch_loss(batch, dropout_rng)
                batch_loss = loss.item() / len(batch)
                T.backward(tape, loss)
            if not np.isfinite(batch_loss):
                raise NumericError(
                    f"non-finite loss in epoch {epoch}, batch starting at {start}",
                    batch_id=start // settings.batch_size,
                )
            if len(batch) > 1:  # dividing by 1 is exact
                store.grad /= len(batch)
            grad_norms.append(T.clip_grad_norm(store, settings.clip_norm))
            T.sgd_step(store, lr)
            epoch_losses.append(batch_loss)

        train_loss = float(np.mean(epoch_losses))
        fresh = epoch % settings.eval_every == 0
        if fresh:
            bleu = dev_bleu()
        else:
            bleu = log[-1]["dev_bleu"] if log else 0.0
        entry = {
            "epoch": epoch,
            "train_loss": round(train_loss, 10),
            "dev_bleu": round(bleu, 6),
            "lr": round(lr, 12),
            "grad_norm_mean": round(float(np.mean(grad_norms)), 10),
            "grad_norm_max": round(max(grad_norms), 10),
            "tgt_tokens": tgt_tokens,
            "tgt_unk_rate": round(tgt_unks / tgt_tokens, 10) if tgt_tokens else 0.0,
        }
        log.append(entry)
        if log_sink is not None:
            elapsed = time.monotonic() - started
            log_sink(f"epoch {epoch}: loss={train_loss:.4f} bleu={bleu:.2f} "
                     f"lr={lr:.4f} ({elapsed:.1f}s)")
        if not fresh:
            continue
        # lr decay, patience and early stopping react only to fresh dev scores
        if bleu > best_bleu:
            best_bleu = bleu
            best_theta = store.theta.copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            lr *= settings.lr_decay
        if stale >= settings.patience:
            break
        if best_bleu >= 99.999:
            break

    checkpoint = Checkpoint(
        config=config,
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        arrays=store.views(best_theta),
        meta={
            "seed": seed,
            "epoch": best_epoch,
            "dev_bleu": best_bleu,
            "epochs_run": len(log),
        },
    )
    return checkpoint, log


def write_log(path, log) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for entry in log:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
