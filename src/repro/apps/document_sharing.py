"""Application 1: selective document sharing (Sections 1.1 and 6.2.1).

Enterprise R holds documents ``D_R``, enterprise S holds ``D_S``; both
are preprocessed to significant-word sets. They want all pairs with
``f(|d_R ∩ d_S|, |d_R|, |d_S|) > τ`` - e.g.
``f = |d_R ∩ d_S| / (|d_R| + |d_S|)`` - without revealing the
non-matching documents.

Implementation (as in 6.2.1): R and S run the intersection-*size*
protocol once per document pair; R then evaluates the similarity
function. Besides the matches, the paper notes R also learns
``|d_R ∩ d_S|`` for every pair and S learns ``|D_R|`` and the document
sizes - the result object reports that disclosed information
explicitly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ..analysis.costmodel import ProtocolCostModel
from ..crypto.numtheory import _party_rngs
from ..protocols.parties import PublicParams
from ..protocols.spec import PROTOCOLS, run_pair

__all__ = [
    "dice_similarity",
    "DocumentMatch",
    "DocumentSharingResult",
    "run_document_sharing",
]

SimilarityFn = Callable[[int, int, int], float]


def dice_similarity(common: int, size_r: int, size_s: int) -> float:
    """The paper's example: ``|d_R ∩ d_S| / (|d_R| + |d_S|)``."""
    if size_r + size_s == 0:
        return 0.0
    return common / (size_r + size_s)


@dataclass(frozen=True)
class DocumentMatch:
    """One similar pair found by the join."""

    r_index: int
    s_index: int
    common_words: int
    similarity: float


@dataclass
class DocumentSharingResult:
    """Matches plus full accounting of cost and disclosure."""

    matches: list[DocumentMatch]
    pair_overlaps: dict[tuple[int, int], int]  # what R learns per pair
    protocol_runs: int
    total_bytes: int
    total_encryptions: int

    def matched_pairs(self) -> set[tuple[int, int]]:
        """The (R index, S index) pairs above the threshold."""
        return {(m.r_index, m.s_index) for m in self.matches}


def run_document_sharing(
    docs_r: Sequence[frozenset[str]],
    docs_s: Sequence[frozenset[str]],
    threshold: float,
    *,
    params: PublicParams,
    rngs: tuple[random.Random, random.Random] | None = None,
    similarity: SimilarityFn = dice_similarity,
) -> DocumentSharingResult:
    """Find all similar document pairs via per-pair intersection sizes.

    Args:
        docs_r: R's documents as significant-word sets (see
            :mod:`repro.apps.tfidf`).
        docs_s: S's documents.
        threshold: τ - pairs with similarity strictly above it match.
        params: public parameters shared by all pair runs.
        rngs: R's and S's randomness, drawn on by each pair run in
            turn (fresh keys per pair; the OS CSPRNG when omitted).
        similarity: ``f(|d_R ∩ d_S|, |d_R|, |d_S|)``.
    """
    spec = PROTOCOLS["intersection-size"]
    rngs = rngs or _party_rngs()
    matches: list[DocumentMatch] = []
    overlaps: dict[tuple[int, int], int] = {}
    total_bytes = 0
    cost_model = ProtocolCostModel()
    total_encryptions = 0

    for i, d_r in enumerate(docs_r):
        for j, d_s in enumerate(docs_s):
            receiver, _, wires = run_pair(spec, list(d_r), list(d_s), params, *rngs)
            common = overlaps[(i, j)] = receiver.finish()
            total_bytes += spec.transcript(wires).total_bytes
            total_encryptions += cost_model.intersection_ops(
                len(d_s), len(d_r)
            ).encryptions
            score = similarity(common, len(d_r), len(d_s))
            if score > threshold:
                matches.append(
                    DocumentMatch(
                        r_index=i,
                        s_index=j,
                        common_words=common,
                        similarity=score,
                    )
                )

    return DocumentSharingResult(
        matches=matches,
        pair_overlaps=overlaps,
        protocol_runs=len(docs_r) * len(docs_s),
        total_bytes=total_bytes,
        total_encryptions=total_encryptions,
    )
