"""Deterministic signed feature-hash embeddings and the topic router.

Model-free stand-in for a dense embedding: tokens are hashed with a fixed
64-bit hash (BLAKE2b), bucketed into 256 dimensions with a sign bit, and
accumulated into a map of the non-zero integer terms.  Identical text yields
identical terms and norms on every platform, which makes journal replay and
every cosine (an exact integer dot product over the norms) reproducible.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .model import MemoryState, Topic

DIM = 256

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class RoutingError(ValueError):
    """topic_hint points at a topic the router cannot use."""


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _token_hash(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    terms: dict[int, int]  # bucket in range(DIM) -> non-zero value; never mutated
    norm: float  # math.sqrt of the sum of squared terms


@lru_cache(maxsize=8192)
def _embed_tuple(text: str) -> EmbeddingVector:
    terms: dict[int, int] = {}
    for token in tokenize(text):
        h = _token_hash(token)
        terms[h % DIM] = terms.get(h % DIM, 0) + (-1 if (h >> 63) & 1 else 1)
    terms = {bucket: value for bucket, value in terms.items() if value}
    return EmbeddingVector(terms, math.sqrt(sum(v * v for v in terms.values())))


def embed(text: str) -> EmbeddingVector:
    return _embed_tuple(text)


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    ta, tb = a.terms, b.terms
    dot = 0
    for bucket in ta.keys() & tb.keys():
        dot += ta[bucket] * tb[bucket]
    return dot / (a.norm * b.norm) if dot else 0.0  # a zero norm has no terms


def rank_topics(state: "MemoryState", text: str, k: int) -> list[tuple[float, str, "Topic"]]:
    """The `k` live topics nearest to `text`, as (-cosine, topic id, topic)
    in ranking order: by cosine, ties to the smaller topic id.

    Term-at-a-time (Turtle & Flood, 1995): the integer dot products are
    summed over the posting lists of the query's buckets only, and each is
    scored as `cosine` scores it.  A topic that shares no bucket with the
    query scores 0, so the order is the positive scores, then the score-0
    topics by id, taken only as far as `k` needs, then the negative scores.
    """
    query = embed(text)
    ranking = state.part("ranking")
    postings, vectors = ranking.postings, ranking.values
    dots: dict[str, int] = {}
    for bucket, value in query.terms.items():
        for tid, term in postings.get(bucket, {}).items():
            dots[tid] = dots.get(tid, 0) + value * term
    qnorm = query.norm

    def scored(sign: int) -> list[tuple[float, str]]:
        return [(-(dot / (qnorm * vectors[tid].norm)), tid) for tid, dot in dots.items() if dot * sign > 0]

    ranked = heapq.nsmallest(k, scored(1))
    if len(ranked) < k:
        ranked += heapq.nsmallest(k - len(ranked), ((-0.0, tid) for tid in vectors if not dots.get(tid)))
    if len(ranked) < k:
        ranked += heapq.nsmallest(k - len(ranked), scored(-1))
    return [(score, tid, state.topics[tid]) for score, tid in ranked]


@dataclass(frozen=True)
class HostChoice:
    topic_id: Optional[str]  # None means create a new topic
    score: float


def select_host(state: "MemoryState", text: str, topic_hint: Optional[str], tau_topic: float) -> HostChoice:
    """Pick the host topic for an incoming bundle.

    A live topic_hint wins outright.  A hint naming an archived topic follows
    its merge marker if one exists, otherwise it is a routing error.  A hint
    naming no topic at all requests creation under that id.  Without a hint
    the first topic of `rank_topics` wins if its cosine is positive and
    clears tau_topic.
    """
    if topic_hint is not None:
        topic = state.topics.get(topic_hint)
        if topic is None:
            return HostChoice(None, 0.0)
        if topic.archived:
            if topic.merged_into is not None and topic.merged_into in state.topics:
                merged = state.topics[topic.merged_into]
                if not merged.archived:
                    return HostChoice(merged.id, 1.0)
            raise RoutingError(f"topic_hint names archived topic: {topic_hint}")
        return HostChoice(topic.id, 1.0)

    ranked = rank_topics(state, text, 1)
    score = -ranked[0][0] if ranked else 0.0
    if score > 0.0 and score >= tau_topic:
        return HostChoice(ranked[0][1], score)
    return HostChoice(None, max(score, 0.0))
