"""Corpus ingestion: byte-level (or supplied-vocabulary) tokenization, a
document-boundary train/validation split, and deterministic batch sampling.

Documents are blank-line-separated segments of the raw text. The validation
side takes whole documents from the end of the corpus, so the two sides never
share a document. Streams interleave a separator token between documents.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from ssdlab.numerics import SEED_TAG_VALIDATION, derived_rng

BYTE_VOCAB_SIZE = 257  # 256 byte values + document separator


@dataclass
class CorpusConfig:
    path: str
    tokenizer: str = "byte"      # "byte" or a JSON vocabulary file path
    val_fraction: float = 0.1
    seq_len: int = 64

    def __post_init__(self):
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        if self.seq_len < 1:
            raise ValueError("seq_len must be >= 1")


class ByteTokenizer:
    vocab_size = BYTE_VOCAB_SIZE
    doc_sep = 256

    def encode(self, text: str) -> list:
        return list(text.encode("utf-8"))

    def decode(self, ids) -> str:
        return bytes(int(i) for i in ids if i != self.doc_sep).decode("utf-8")


def read_json(path: str, what: str):
    """The JSON value in file `path`; a file that does not parse is named
    as `what` in the error."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as e:
            raise ValueError(f"{what} {path} is not valid JSON: {e}") from None


class VocabTokenizer:
    """Character-level tokenizer over a supplied JSON list of characters."""

    def __init__(self, vocab_path: str):
        chars = read_json(vocab_path, "vocabulary file")
        if not isinstance(chars, list) or not all(
                isinstance(c, str) and len(c) == 1 for c in chars):
            raise ValueError("vocabulary file must be a JSON list of single characters")
        if len(set(chars)) != len(chars):
            raise ValueError("vocabulary file contains duplicate characters")
        self.chars = chars
        self.stoi = {c: i for i, c in enumerate(chars)}
        self.doc_sep = len(chars)
        self.vocab_size = len(chars) + 1

    def encode(self, text: str) -> list:
        try:
            return [self.stoi[c] for c in text]
        except KeyError as e:
            raise ValueError(f"character {e.args[0]!r} not in vocabulary") from None

    def decode(self, ids) -> str:
        return "".join(self.chars[int(i)] for i in ids if i != self.doc_sep)


def make_tokenizer(spec: str):
    return ByteTokenizer() if spec == "byte" else VocabTokenizer(spec)


@dataclass
class TokenizedCorpus:
    train_tokens: np.ndarray
    val_tokens: np.ndarray
    manifest: dict
    tokenizer: object
    seq_len: int


def split_documents(text: str) -> list:
    docs = [d for d in re.split(r"\n\s*\n", text) if d.strip()]
    return docs


def tokenize_corpus(cfg: CorpusConfig) -> TokenizedCorpus:
    with open(cfg.path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:  # offsets count the file's bytes
            raise ValueError(f"corpus {cfg.path} is not UTF-8 text: byte "
                             f"0x{e.object[e.start]:02x} at offset {e.start}") from None
    docs = split_documents(text)
    if not docs:
        raise ValueError(f"empty corpus: {cfg.path}")
    tok = make_tokenizer(cfg.tokenizer)
    n_val = round(cfg.val_fraction * len(docs)) if cfg.val_fraction > 0 else 0
    n_val = min(max(n_val, 1 if cfg.val_fraction > 0 else 0), len(docs) - 1)
    if cfg.val_fraction > 0 and len(docs) < 2:
        raise ValueError("need at least 2 documents to hold out validation data")
    train_docs = docs[: len(docs) - n_val]
    val_docs = docs[len(docs) - n_val:]

    def stream(doc_list):
        ids = []
        for d in doc_list:
            ids.append(tok.doc_sep)
            ids.extend(tok.encode(d))
        return np.array(ids, dtype=np.int64)

    train_tokens = stream(train_docs)
    val_tokens = stream(val_docs)
    manifest = {
        "tokenizer": cfg.tokenizer,
        "vocab_size": tok.vocab_size,
        "seq_len": cfg.seq_len,
        "val_fraction": cfg.val_fraction,
        "n_documents": len(docs),
        "train_documents": len(train_docs),
        "val_documents": n_val,
        "train_tokens": int(train_tokens.size),
        "val_tokens": int(val_tokens.size),
        "document_lengths": [len(d) for d in docs],
    }
    return TokenizedCorpus(train_tokens, val_tokens, manifest, tok, cfg.seq_len)


def sample_batch(tokens: np.ndarray, batch_size: int, seq_len: int,
                 rng: np.random.Generator) -> np.ndarray:
    """(batch_size, seq_len + 1) windows at rng-drawn offsets."""
    window = seq_len + 1
    if tokens.size < window:
        raise ValueError(f"token stream too short for seq_len {seq_len}")
    offsets = rng.integers(0, tokens.size - window + 1, size=batch_size)
    return np.stack([tokens[o:o + window] for o in offsets])


def validation_batches(tokens: np.ndarray, seq_len: int, n_sequences: int,
                       batch_size: int) -> list:
    """Fixed held-out batch set (constant seed), identical across runs for the
    same corpus and shape, so curves across checkpoints are comparable."""
    if tokens.size < seq_len + 1:
        raise ValueError(f"validation stream too short for seq_len {seq_len}")
    seqs = sample_batch(tokens, n_sequences, seq_len,
                        derived_rng(0, SEED_TAG_VALIDATION, n_sequences, seq_len))
    return [seqs[i:i + batch_size] for i in range(0, n_sequences, batch_size)]


# -----------------------------------------------------------------------------
# Synthetic corpus for demos and tests
# -----------------------------------------------------------------------------

_TOY_WORDS = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "far",
              "big", "red", "sun"]
_TOY_NEXT = {"the": "cat", "cat": "sat", "sat": "on", "on": "a", "a": "mat",
             "mat": "the", "dog": "ran", "ran": "far", "far": "the",
             "big": "red", "red": "sun", "sun": "the"}


def make_toy_corpus(n_docs: int = 200, words_per_doc: int = 40,
                    seed: int = 0, noise: float = 0.1) -> str:
    """Repetitive near-Markov text over a 12-word vocabulary; a context model
    learns it far below the unigram baseline within a few thousand steps."""
    rng = np.random.Generator(np.random.PCG64(seed))
    docs = []
    for _ in range(n_docs):
        word = _TOY_WORDS[rng.integers(0, len(_TOY_WORDS))]
        out = [word]
        for _ in range(words_per_doc - 1):
            if rng.random() < noise:
                word = _TOY_WORDS[rng.integers(0, len(_TOY_WORDS))]
            else:
                word = _TOY_NEXT[word]
            out.append(word)
        docs.append(" ".join(out) + ".")
    return "\n\n".join(docs) + "\n"


def toy_vocab_chars() -> list:
    chars = sorted(set("".join(_TOY_WORDS)) | {" ", ".", "\n"})
    return chars


def unigram_perplexity(train_tokens: np.ndarray, val_tokens: np.ndarray,
                       vocab_size: int) -> float:
    """Perplexity of the add-one-smoothed unigram model fit on training
    tokens, evaluated on validation tokens; the do-we-learn-at-all baseline."""
    counts = np.bincount(train_tokens, minlength=vocab_size).astype(np.float64) + 1.0
    probs = counts / counts.sum()
    return float(np.exp(-np.log(probs[val_tokens]).mean()))
