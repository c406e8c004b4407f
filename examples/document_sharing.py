#!/usr/bin/env python3
"""Application 1 - selective document sharing (Sections 1.1, 6.2.1).

Enterprise R is shopping for technology; enterprise S holds unpublished
intellectual property. Neither will reveal its full portfolio: they
find the similar document pairs first, via one intersection-size
protocol run per pair over TF-IDF significant-word sets, and only those
pairs are candidates for disclosure.

Run:  python examples/document_sharing.py
"""

import random

from repro.analysis.estimates import document_sharing_estimate
from repro.apps.document_sharing import run_document_sharing
from repro.apps.tfidf import significant_words
from repro.protocols.parties import PublicParams
from repro.workloads.generator import document_corpus


def main() -> None:
    rng = random.Random(7)

    # Synthetic corpora sharing a planted "laser sintering" topic: some
    # of R's shopping-list documents genuinely match S's IP documents.
    topic = ["laser", "sintering", "alloy", "powder", "fusion", "anneal",
             "cladding", "deposition", "melt", "lattice"]
    shopping_list = document_corpus(
        4, rng, vocabulary_size=800, words_per_doc=150,
        topic_words=topic, topic_rate=0.9,
    ) + document_corpus(3, rng, vocabulary_size=800, words_per_doc=150)
    ip_portfolio = document_corpus(
        5, rng, vocabulary_size=800, words_per_doc=150,
        topic_words=topic, topic_rate=0.9,
    ) + document_corpus(4, rng, vocabulary_size=800, words_per_doc=150)

    # Preprocessing (the paper's Section 1.1 abstraction): keep only the
    # most significant words by tf-idf.
    docs_r = significant_words(shopping_list, k=40)
    docs_s = significant_words(ip_portfolio, k=40)
    print(f"R: {len(docs_r)} documents, S: {len(docs_s)} documents "
          f"(top-40 significant words each)\n")

    result = run_document_sharing(
        docs_r, docs_s, threshold=0.03, params=PublicParams.for_bits(512),
        rngs=(random.Random("7/R"), random.Random("7/S")),
    )

    print(f"Ran {result.protocol_runs} intersection-size protocols "
          f"({result.total_encryptions} commutative encryptions, "
          f"{result.total_bytes / 1024:.0f} kB on the wire)\n")

    print(f"Similar pairs above threshold ({len(result.matches)}):")
    for match in sorted(result.matches, key=lambda m: -m.similarity):
        print(
            f"  R#{match.r_index} ~ S#{match.s_index}: "
            f"{match.common_words} shared significant words, "
            f"similarity {match.similarity:.3f}"
        )

    # The Section 6.2.1 estimate at the paper's full scale.
    est = document_sharing_estimate()
    print(f"\nAt the paper's scale (10 x 100 docs, 1000 words):")
    print(f"  computation ~ {est.computation_hours:.1f} h on 10 processors "
          f"(paper: ~2 h)")
    print(f"  communication ~ {est.communication_minutes:.0f} min on a T1 "
          f"(paper: ~35 min)")


if __name__ == "__main__":
    main()
