"""Area ``apps`` — the paper's two Section 6.2 applications, live.

Selective document sharing (S6.2.1) and the Figure 2 medical-research
pipeline (S6.2.2): paper estimates from the cost model, plus real
reduced-scale runs validated against plaintext.
"""

from __future__ import annotations

import random
import time

from ...analysis.estimates import (
    document_sharing_estimate,
    medical_research_estimate,
)
from ...apps.document_sharing import run_document_sharing
from ...apps.medical import plaintext_contingency, run_medical_research
from ...apps.tfidf import significant_words
from ...protocols.base import ProtocolSuite
from ...workloads.generator import document_corpus, medical_workload
from ..registry import register

__all__ = []


def _small_corpus(words_per_doc: int, k: int, n_r: int, n_s: int):
    """Reduced-scale topical corpora, reduced to significant-word sets."""
    rng = random.Random(1)
    topic = [f"topic{i}" for i in range(10)]
    corpus_r = document_corpus(
        n_r, rng, vocabulary_size=500, words_per_doc=words_per_doc,
        topic_words=topic, topic_rate=0.9,
    )
    corpus_s = document_corpus(
        n_s, rng, vocabulary_size=500, words_per_doc=words_per_doc,
        topic_words=topic, topic_rate=0.9,
    )
    return significant_words(corpus_r, k), significant_words(corpus_s, k)


@register(
    "apps.document-sharing",
    smoke={"bits": 128, "words_per_doc": 25, "k": 12, "n_r": 2, "n_s": 4},
    full={"bits": 128, "words_per_doc": 40, "k": 20, "n_r": 3, "n_s": 6},
    summary="S6.2.1: paper headline (4e6 C_e, ~2 h at P=10, ~35 min on "
            "a T1) plus a live TF-IDF + per-pair protocol run.",
)
def document_sharing(ctx) -> list[dict]:
    """Check the paper estimate, then run the application for real."""
    est = document_sharing_estimate()
    assert abs(est.encryptions_ce - 4e6) < 1e3
    assert 2.0 <= est.computation_hours <= 2.3
    assert 30 <= est.communication_minutes <= 36
    records = [{
        "id": "paper-estimate",
        "encryptions_ce": est.encryptions_ce,
        "computation_hours": round(est.computation_hours, 3),
        "communication_minutes": round(est.communication_minutes, 1),
        "paper": "~2 h compute, ~35 min transfer",
    }]

    docs_r, docs_s = _small_corpus(
        ctx.param("words_per_doc"), ctx.param("k"),
        ctx.param("n_r"), ctx.param("n_s"),
    )
    suite = ProtocolSuite.default(bits=ctx.param("bits"), seed=2)
    started = time.perf_counter()
    result = run_document_sharing(
        docs_r, docs_s, threshold=0.05, suite=suite
    )
    elapsed = time.perf_counter() - started
    formula = sum(
        2 * (len(d_r) + len(d_s)) for d_r in docs_r for d_s in docs_s
    )
    assert result.total_encryptions == formula
    records.append({
        "id": "scaled-run",
        "doc_pairs": result.protocol_runs,
        "encryptions": result.total_encryptions,
        "formula_encryptions": formula,
        "wire_bytes": result.total_bytes,
        "matches": len(result.matches),
        "metrics": {"elapsed_s": round(elapsed, 6)},
    })
    return records


@register(
    "apps.medical",
    smoke={"bits": 128, "people": 60},
    full={"bits": 128, "people": 150},
    summary="S6.2.2: paper headline (8e6 C_e, ~4 h at P=10, ~1.5 h "
            "transfer) plus a live Figure 2 three-party pipeline run "
            "checked against plaintext SQL.",
)
def medical(ctx) -> list[dict]:
    """Check the paper estimate, then run the Figure 2 pipeline."""
    est = medical_research_estimate()
    assert abs(est.encryptions_ce - 8e6) < 1e3
    assert 4.0 <= est.computation_hours <= 4.6
    assert 1.3 <= est.communication_hours <= 1.6
    records = [{
        "id": "paper-estimate",
        "encryptions_ce": est.encryptions_ce,
        "computation_hours": round(est.computation_hours, 3),
        "communication_hours": round(est.communication_hours, 3),
        "paper": "~4 h compute, ~1.5 h transfer",
    }]

    people = ctx.param("people")
    wl = medical_workload(people, random.Random(4))
    suite = ProtocolSuite.default(bits=ctx.param("bits"), seed=4)
    started = time.perf_counter()
    result = run_medical_research(wl.t_r, wl.t_s, suite)
    elapsed = time.perf_counter() - started
    truth = plaintext_contingency(wl.t_r, wl.t_s)
    assert result.table.as_dict() == truth.as_dict()
    assert len(result.run.t_view.received) == 8  # (Z_R, Z_S) x 4 queries
    contingency = {
        f"pattern={p}/reaction={r}": count
        for (p, r), count in result.table.as_dict().items()
    }
    records.append({
        "id": "scaled-run",
        "people": people,
        "contingency": contingency,
        "wire_bytes": result.run.total_bytes,
        "t_received_sets": len(result.run.t_view.received),
        "metrics": {"elapsed_s": round(elapsed, 6)},
    })
    return records
