"""Tests for Application 1: selective document sharing."""

from __future__ import annotations

import random

import pytest

from repro.apps.document_sharing import (
    dice_similarity,
    run_document_sharing,
)
from repro.apps.tfidf import significant_words
from repro.workloads.generator import document_corpus


@pytest.fixture()
def rngs():
    """R's and S's randomness, drawn on by each run in turn."""
    return random.Random("42/R"), random.Random("42/S")


@pytest.fixture()
def docs():
    docs_r = [frozenset({"a", "b", "c", "d"}), frozenset({"x", "y"})]
    docs_s = [frozenset({"c", "d", "e"}), frozenset({"p", "q"})]
    return docs_r, docs_s


class TestSimilarity:
    def test_dice_example(self):
        assert dice_similarity(2, 4, 3) == pytest.approx(2 / 7)

    def test_zero_sizes(self):
        assert dice_similarity(0, 0, 0) == 0.0


class TestRun:
    def test_matches_plaintext_similarity(self, docs, params128, rngs):
        docs_r, docs_s = docs
        result = run_document_sharing(docs_r, docs_s, threshold=0.2, params=params128, rngs=rngs)
        expected = set()
        for i, d_r in enumerate(docs_r):
            for j, d_s in enumerate(docs_s):
                if dice_similarity(len(d_r & d_s), len(d_r), len(d_s)) > 0.2:
                    expected.add((i, j))
        assert result.matched_pairs() == expected

    def test_pair_overlaps_are_exact(self, docs, params128, rngs):
        docs_r, docs_s = docs
        result = run_document_sharing(docs_r, docs_s, threshold=0.9, params=params128, rngs=rngs)
        for (i, j), overlap in result.pair_overlaps.items():
            assert overlap == len(docs_r[i] & docs_s[j])

    def test_runs_one_protocol_per_pair(self, docs, params128, rngs):
        docs_r, docs_s = docs
        result = run_document_sharing(docs_r, docs_s, threshold=0.5, params=params128, rngs=rngs)
        assert result.protocol_runs == 4
        assert len(result.pair_overlaps) == 4

    def test_threshold_is_strict(self, params128, rngs):
        d = frozenset({"a", "b"})
        # similarity = 2 / 4 = 0.5 exactly
        result = run_document_sharing([d], [d], threshold=0.5, params=params128, rngs=rngs)
        assert result.matches == []
        result = run_document_sharing([d], [d], threshold=0.49, params=params128, rngs=rngs)
        assert len(result.matches) == 1

    def test_match_fields(self, params128, rngs):
        d_r = frozenset({"a", "b", "c"})
        d_s = frozenset({"b", "c"})
        result = run_document_sharing([d_r], [d_s], threshold=0.1, params=params128, rngs=rngs)
        (match,) = result.matches
        assert match.common_words == 2
        assert match.similarity == pytest.approx(2 / 5)
        assert (match.r_index, match.s_index) == (0, 0)

    def test_accounting_positive(self, docs, params128, rngs):
        docs_r, docs_s = docs
        result = run_document_sharing(docs_r, docs_s, threshold=0.5, params=params128, rngs=rngs)
        assert result.total_bytes > 0
        assert result.total_encryptions == sum(
            2 * (len(r) + len(s)) for r in docs_r for s in docs_s
        )

    def test_custom_similarity_function(self, docs, params128, rngs):
        docs_r, docs_s = docs
        jaccard = lambda c, nr, ns: c / (nr + ns - c) if nr + ns - c else 0.0
        result = run_document_sharing(
            docs_r, docs_s, threshold=0.3, params=params128, rngs=rngs, similarity=jaccard
        )
        assert result.matched_pairs() == {(0, 0)}  # 2/5 = 0.4 > 0.3

    def test_end_to_end_with_tfidf_corpus(self, params128, rngs):
        """Planted-topic corpora produce at least one similar pair."""
        rng = random.Random(11)
        corpus_r = document_corpus(
            2, rng, vocabulary_size=400, words_per_doc=60,
            topic_words=[f"topic{i}" for i in range(12)], topic_rate=0.95,
        )
        corpus_s = document_corpus(
            2, rng, vocabulary_size=400, words_per_doc=60,
            topic_words=[f"topic{i}" for i in range(12)], topic_rate=0.95,
        )
        docs_r = significant_words(corpus_r, 25)
        docs_s = significant_words(corpus_s, 25)
        result = run_document_sharing(docs_r, docs_s, threshold=0.02, params=params128, rngs=rngs)
        assert len(result.matches) >= 1
