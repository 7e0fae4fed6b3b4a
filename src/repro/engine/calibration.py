"""Engine calibration: every tunable behind the paper's findings.

The defaults are calibrated so the measurement pipeline reproduces the
*shape* of every figure in the paper (see EXPERIMENTS.md for paper-vs-
measured numbers).  Each knob names the behaviour it controls; the
ablation benchmarks flip them one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["EngineCalibration"]


@dataclass(frozen=True)
class EngineCalibration:
    """All ranking / noise / card parameters of the simulated engine."""

    # ---- page geometry ----------------------------------------------------
    organic_slots: int = 17
    """Organic result cards per page (plus meta-cards → 12-22 links)."""

    # ---- local retrieval --------------------------------------------------
    poi_radius_miles: float = 2.5
    """Radius of the local-candidate fetch around the snapped position."""

    poi_candidate_limit: int = 30
    """Max POIs considered per query (nearest-first)."""

    poi_distance_penalty_per_mile: float = 0.22
    """Score subtracted per mile between user and POI."""

    snap_to_grid: bool = True
    """Quantise the user position before local retrieval.

    The source of county-level result clustering (Fig. 8a): voting
    districts that fall into the same snap cell receive identical local
    candidates.  The ablation benchmark disables it.
    """

    snap_cell_miles: float = 1.7
    """Edge length of the snap cell — the engine's location-cache
    quantum, deliberately coarser than the world's POI grid."""

    # ---- ambiguity entities -----------------------------------------------
    ambiguity_decay_per_mile: float = 0.0035
    """Score decay per mile for same-named-person pages (~3.5 per 1000 mi)."""

    # ---- location-keyed reordering of national results ---------------------
    state_perturb_local_generic: float = 0.30
    metro_perturb_local_generic: float = 0.26
    state_perturb_local_brand: float = 0.10
    metro_perturb_local_brand: float = 0.06
    state_perturb_controversial: float = 0.07
    state_perturb_controversial_broad: float = 0.18
    metro_perturb_controversial: float = 0.025
    state_perturb_politician: float = 0.04
    metro_perturb_politician: float = 0.015

    # ---- noise ------------------------------------------------------------
    ab_buckets: int = 1024
    """Number of A/B experiment buckets requests are hashed into."""

    ab_jitter_local: float = 0.14
    """Half-width of the per-(bucket, doc) uniform score jitter applied to
    POINT/CITY-scoped documents (the tightly packed local results)."""

    ab_jitter_national: float = 0.06
    """Half-width of the jitter applied to nationally scoped documents."""

    datacenter_skew: float = 0.06
    """Half-width of the per-(datacenter, doc) index-skew offset."""

    index_bias: float = 0.0
    """Half-width of a per-(engine, doc) score offset.

    Zero for the primary engine; a second engine (see
    ``repro.core.crossengine``) sets it non-zero so the two engines'
    crawling/scoring differences surface different result *sets* over
    the same web — like Google vs. Bing."""

    # ---- Maps meta-card ---------------------------------------------------
    maps_prob_generic: float = 0.85
    """Per-request probability a generic local query gets a Maps card."""

    maps_prob_brand: float = 0.03
    """Per-request probability a brand query gets a Maps card (paper:
    brand queries "typically do not yield Maps results")."""

    maps_card_size: int = 3
    maps_insert_rank: int = 1
    """Maps card is inserted after this many organic cards."""

    # ---- News meta-card ---------------------------------------------------
    news_threshold_controversial: float = 0.45
    """has_news_card threshold for controversial terms (lower → more cards)."""

    news_threshold_politician: float = 0.75
    news_card_size: int = 3
    news_insert_rank: int = 2

    # ---- session personalization -------------------------------------------
    session_window_minutes: float = 10.0
    """How long prior searches influence ranking (paper §2.2 item 3)."""

    session_boost: float = 0.8
    """Score bonus for documents matching a recent query's topic."""

    # ---- rate limiting ----------------------------------------------------
    ratelimit_max_per_minute: int = 20
    """Per-IP request budget per rolling minute before a CAPTCHA."""

    def with_overrides(self, **kwargs) -> "EngineCalibration":
        """A copy with some fields replaced (for ablations)."""
        return replace(self, **kwargs)

    def __post_init__(self) -> None:
        if self.organic_slots <= 0:
            raise ValueError("organic_slots must be positive")
        if not 0 <= self.maps_prob_generic <= 1:
            raise ValueError("maps_prob_generic must be a probability")
        if not 0 <= self.maps_prob_brand <= 1:
            raise ValueError("maps_prob_brand must be a probability")
        if self.poi_radius_miles <= 0:
            raise ValueError("poi_radius_miles must be positive")
        if self.ab_buckets <= 0:
            raise ValueError("ab_buckets must be positive")
        for name in ("poi_candidate_limit", "maps_card_size", "news_card_size"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
