"""Seeded synthetic check-in generator with a controllable gender-venue
dependence dial, used to validate the statistical modules."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .models import CheckInRecord, Gender


def _check_types(spec, types: dict) -> None:
    """Raise ValueError naming the first field whose value is not of its type
    (a spec read from JSON may hold a string where a number belongs)."""
    for name, kind in types.items():
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{type(spec).__name__}.{name} has the wrong type: "
                             f"{value!r}")


def _check_not_blank(spec, names) -> None:
    """Raise ValueError naming the first of the str fields ``names`` that is
    empty or only whitespace (ingest rejects a check-in with a blank
    subcategory, category or country)."""
    for name in names:
        if not getattr(spec, name).strip():
            raise ValueError(f"{type(spec).__name__}.{name} must not be blank: "
                             f"{getattr(spec, name)!r}")


def _check_bbox(bbox) -> tuple:
    """``bbox`` as a tuple (lat_lo, lat_hi, lon_lo, lon_hi), or ValueError
    unless it holds four numbers with latitudes in [-90, 90] and longitudes
    in [-180, 180] (which also rules out nan and inf)."""
    if (isinstance(bbox, (list, tuple)) and len(bbox) == 4
            and all(isinstance(v, Real) and not isinstance(v, bool)
                    and -limit <= v <= limit
                    for v, limit in zip(bbox, (90, 90, 180, 180)))):
        return tuple(bbox)
    raise ValueError(f"SynthSpec.bbox must be four numbers (lat_lo, lat_hi, lon_lo, "
                     f"lon_hi), latitudes in [-90, 90] and longitudes in "
                     f"[-180, 180]: {bbox!r}")


@dataclass
class SubcategorySpec:
    name: str
    category: str
    n_venues: int
    base_weight: float
    gender_skew: float = 0.0

    def __post_init__(self):
        _check_types(self, {"name": str, "category": str, "n_venues": Integral,
                            "base_weight": Real, "gender_skew": Real})
        _check_not_blank(self, ("name", "category"))
        if self.n_venues < 1:
            raise ValueError(f"subcategory {self.name!r}: n_venues must be >= 1")
        if self.base_weight < 0:
            raise ValueError(f"subcategory {self.name!r}: base_weight must be >= 0")
        if not (-1.0 <= self.gender_skew <= 1.0):
            raise ValueError(f"subcategory {self.name!r}: gender_skew must be in [-1, 1]")


@dataclass
class SynthSpec:
    n_users: int
    female_fraction: float
    subcategories: list[SubcategorySpec]
    n_checkins: int
    region_name: str
    rng_seed: int = 0
    city: Optional[str] = None
    bbox: tuple[float, float, float, float] = (-60.0, 60.0, -180.0, 180.0)

    def __post_init__(self):
        _check_types(self, {"n_users": Integral, "female_fraction": Real,
                            "n_checkins": Integral, "region_name": str,
                            "rng_seed": Integral, "city": (str, type(None))})
        _check_not_blank(self, ("region_name",))
        self.bbox = _check_bbox(self.bbox)
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if not (0.0 <= self.female_fraction <= 1.0):
            raise ValueError("female_fraction must be in [0, 1]")
        if self.n_checkins < 0:
            raise ValueError("n_checkins must be >= 0")
        if not self.subcategories:
            raise ValueError("at least one subcategory required")
        self.subcategories = [
            s if isinstance(s, SubcategorySpec) else SubcategorySpec(**s)
            for s in self.subcategories
        ]
        if sum(s.base_weight for s in self.subcategories) <= 0:
            raise ValueError("base weights must sum to > 0")

    @classmethod
    def from_json(cls, text: str) -> "SynthSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("synth spec must be a JSON object")
        try:
            return cls(**data)
        except TypeError as exc:  # an unknown or missing key, here or in a subcategory
            raise ValueError(f"bad synth spec: {exc}") from None


def _gender_weights(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    base = np.array([s.base_weight for s in spec.subcategories])
    skew = np.array([s.gender_skew for s in spec.subcategories])
    male = base * (1.0 + skew)
    female = base * (1.0 - skew)
    return male, female


def generate(spec: SynthSpec) -> list[CheckInRecord]:
    """Draw n_checkins records: user (fixed gender), then subcategory with
    gender-skewed weights, then a uniform venue within it."""
    rng = np.random.default_rng(spec.rng_seed)

    n_female = int(round(spec.female_fraction * spec.n_users))
    user_gender = np.zeros(spec.n_users, dtype=np.int8)  # 1 = male
    user_gender[n_female:] = 1
    rng.shuffle(user_gender)
    n_male = spec.n_users - n_female

    male_w, female_w = _gender_weights(spec)
    for weights, gender_name, count in ((male_w, "male", n_male),
                                        (female_w, "female", n_female)):
        if count > 0 and weights.sum() <= 0:
            raise ValueError(f"no subcategory is reachable for {gender_name} users")
    for s in spec.subcategories:
        if s.gender_skew == 1.0 and n_male == 0 and s.base_weight > 0:
            raise ValueError(f"subcategory {s.name!r} is male-only but there "
                             "are no male users")
        if s.gender_skew == -1.0 and n_female == 0 and s.base_weight > 0:
            raise ValueError(f"subcategory {s.name!r} is female-only but there "
                             "are no female users")

    male_p = male_w / male_w.sum() if n_male else male_w
    female_p = female_w / female_w.sum() if n_female else female_w

    # venues laid out per subcategory with fixed coordinates in the bbox
    lat_lo, lat_hi, lon_lo, lon_hi = spec.bbox
    venues = []  # (venue_id, subcat index, lat, lon)
    offsets = []
    for si, s in enumerate(spec.subcategories):
        offsets.append(len(venues))
        lats = rng.uniform(lat_lo, lat_hi, size=s.n_venues)
        lons = rng.uniform(lon_lo, lon_hi, size=s.n_venues)
        for vi in range(s.n_venues):
            venues.append((f"v-{si:03d}-{vi:04d}", si,
                           float(lats[vi]), float(lons[vi])))

    n = spec.n_checkins
    user_ids = rng.integers(0, spec.n_users, size=n)
    is_male = user_gender[user_ids].astype(bool)
    male_cum = np.cumsum(male_p) if n_male else np.ones(len(spec.subcategories))
    female_cum = np.cumsum(female_p) if n_female else np.ones(len(spec.subcategories))
    u = rng.random(n)
    si_arr = np.where(is_male,
                      np.searchsorted(male_cum, u, side="right"),
                      np.searchsorted(female_cum, u, side="right"))
    np.clip(si_arr, 0, len(spec.subcategories) - 1, out=si_arr)
    n_venues_arr = np.array([s.n_venues for s in spec.subcategories])
    vi_arr = (rng.random(n) * n_venues_arr[si_arr]).astype(np.int64)

    records: list[CheckInRecord] = []
    for i in range(n):
        si = int(si_arr[i])
        sub = spec.subcategories[si]
        venue_id, _, lat, lon = venues[offsets[si] + int(vi_arr[i])]
        records.append(CheckInRecord(
            user_id=f"u-{int(user_ids[i]):06d}",
            gender=Gender.MALE if is_male[i] else Gender.FEMALE,
            venue_id=venue_id,
            category=sub.category,
            subcategory=sub.name,
            latitude=lat,
            longitude=lon,
            country=spec.region_name,
            city=spec.city,
        ))
    return records
