import json

import numpy as np
import pytest

from ssdlab.data import (
    ByteTokenizer,
    CorpusConfig,
    VocabTokenizer,
    make_toy_corpus,
    sample_batch,
    tokenize_corpus,
    toy_vocab_chars,
    unigram_perplexity,
    validation_batches,
)
from ssdlab.numerics import make_rng


class TestByteTokenizer:
    def test_ascii_bytes(self):
        assert ByteTokenizer().encode("ab") == [97, 98]

    def test_round_trip(self):
        tok = ByteTokenizer()
        for s in ("hello world", "naïve café\n", "tab\tand\0null"):
            assert tok.decode(tok.encode(s)) == s

    def test_vocab_size_includes_separator(self):
        assert ByteTokenizer().vocab_size == 257
        assert ByteTokenizer().doc_sep == 256


class TestVocabTokenizer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(["a", "b", " "]))
        tok = VocabTokenizer(str(path))
        assert tok.vocab_size == 4
        assert tok.decode(tok.encode("ab a")) == "ab a"

    def test_unknown_character_rejected(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(["a"]))
        with pytest.raises(ValueError, match="not in vocabulary"):
            VocabTokenizer(str(path)).encode("b")

    def test_malformed_vocab_rejected(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(["ab"]))
        with pytest.raises(ValueError):
            VocabTokenizer(str(path))


class TestTokenizeCorpus:
    def _write(self, tmp_path, text):
        p = tmp_path / "corpus.txt"
        p.write_text(text)
        return str(p)

    def test_split_is_disjoint_by_documents(self, tmp_path):
        docs = [f"document number {i} body" for i in range(10)]
        path = self._write(tmp_path, "\n\n".join(docs))
        corpus = tokenize_corpus(CorpusConfig(path, val_fraction=0.2, seq_len=4))
        assert corpus.manifest["train_documents"] == 8
        assert corpus.manifest["val_documents"] == 2
        tok = ByteTokenizer()
        train_text = tok.decode(corpus.train_tokens)
        val_text = tok.decode(corpus.val_tokens)
        for d in docs[-2:]:
            assert d in val_text and d not in train_text

    def test_manifest_deterministic(self, tmp_path):
        path = self._write(tmp_path, make_toy_corpus(n_docs=20, seed=0))
        cfg = CorpusConfig(path, val_fraction=0.1, seq_len=8)
        a = tokenize_corpus(cfg)
        b = tokenize_corpus(cfg)
        assert a.manifest == b.manifest
        assert np.array_equal(a.train_tokens, b.train_tokens)

    def test_empty_corpus_rejected(self, tmp_path):
        path = self._write(tmp_path, "   \n \n  ")
        with pytest.raises(ValueError, match="empty corpus"):
            tokenize_corpus(CorpusConfig(path))

    def test_non_utf8_byte_named_with_its_file_offset(self, tmp_path):
        # the offset counts bytes, not decoded characters or translated newlines
        path = tmp_path / "corpus.txt"
        path.write_bytes("caf\u00e9\r\n\r\nd".encode() + b"\xe9f\n")
        with pytest.raises(ValueError) as e:
            tokenize_corpus(CorpusConfig(str(path)))
        assert str(e.value) == f"corpus {path} is not UTF-8 text: byte 0xe9 at offset 10"

    def test_single_document_cannot_hold_out_validation(self, tmp_path):
        path = self._write(tmp_path, "just one document here")
        with pytest.raises(ValueError, match="2 documents"):
            tokenize_corpus(CorpusConfig(path, val_fraction=0.1))

    def test_seq_len_vs_model_checked_at_train_time(self, toy_corpus):
        from ssdlab.model import ModelConfig
        from ssdlab.training import DenseTrain, train

        cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                          vocab_size=toy_corpus.manifest["vocab_size"],
                          max_seq_len=toy_corpus.seq_len - 1)
        with pytest.raises(ValueError, match="max_seq_len"):
            train(cfg, toy_corpus, DenseTrain())


class TestBatching:
    def test_sample_shapes_and_determinism(self):
        tokens = np.arange(1000, dtype=np.int64)
        a = sample_batch(tokens, 4, 16, make_rng(5))
        b = sample_batch(tokens, 4, 16, make_rng(5))
        assert a.shape == (4, 17)
        assert np.array_equal(a, b)

    def test_windows_are_contiguous(self):
        tokens = np.arange(1000, dtype=np.int64)
        batch = sample_batch(tokens, 4, 16, make_rng(6))
        for row in batch:
            assert np.array_equal(row, np.arange(row[0], row[0] + 17))

    def test_too_short_stream_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            sample_batch(np.arange(8), 2, 16, make_rng(0))

    def test_validation_batches_fixed_across_runs(self):
        tokens = np.arange(5000, dtype=np.int64)
        a = validation_batches(tokens, 16, n_sequences=16, batch_size=8)
        b = validation_batches(tokens, 16, n_sequences=16, batch_size=8)
        assert len(a) == 2
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestToyCorpus:
    def test_deterministic(self):
        assert make_toy_corpus(n_docs=5, seed=3) == make_toy_corpus(n_docs=5, seed=3)

    def test_vocab_covers_corpus(self):
        text = make_toy_corpus(n_docs=5, seed=4)
        chars = set(toy_vocab_chars())
        assert set(text) <= chars

    def test_unigram_baseline_reasonable(self, toy_corpus):
        ppl = unigram_perplexity(toy_corpus.train_tokens, toy_corpus.val_tokens,
                                 toy_corpus.manifest["vocab_size"])
        assert 2.0 < ppl < toy_corpus.manifest["vocab_size"]
