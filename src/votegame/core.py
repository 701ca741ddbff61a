"""Data model and single-stage operations of the elimination voting game.

One stage works like this: every agent puts its full vote weight on its most
preferred alternative among those still live; an alternative whose tally
falls strictly below its threshold is eliminated; survivors then absorb the
eliminated alternatives' threshold mass in proportion to their popularity
(tally minus threshold).  Survival on exact equality is deliberate.

Thresholds are ``fractions.Fraction`` values - never floats - and the update
computes on their integer numerators and denominators, still exactly, so the
redistribution conserves total threshold mass bit-exactly.  Threshold sums
are integers over the lcm of the denominators, so the mass condition compares
integers.  Survivors with equal (threshold, tally) get equal new thresholds,
so the update builds one ``Fraction`` per such class, not one per survivor.
Alternatives keep one stable integer identity for the whole game; there is
no per-stage renumbering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Mapping, Sequence, Union

AlternativeId = int    # 1-based, stable across stages
RationalLike = Union[int, str, Fraction]

Tally = dict  # AlternativeId -> nonnegative int vote count


class InvalidConfig(ValueError):
    """A game configuration violates a structural invariant."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string ("3", "0.4", "2/5") to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidConfig(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value.lower():  # Fraction would spend seconds on "1e3000000"
            raise InvalidConfig(f"not a rational number: {value!r} (no exponents)")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidConfig(f"not a rational number: {value!r}") from exc
    raise InvalidConfig(f"not a rational number: {value!r}")


@dataclass(frozen=True)
class GameConfig:
    """A single-stage game: agents, weights, alternatives, preferences, thresholds.

    weights[i] is agent i+1's vote weight (agents are numbered 1..n), and
    preferences[i] is that agent's ranking: a strict total order over the
    alternatives, most preferred first, fixed for the whole repeated game.
    initial_thresholds maps every alternative to its stage-1 threshold.
    """

    weights: tuple[int, ...]
    alternatives: frozenset[AlternativeId]
    preferences: tuple[tuple[AlternativeId, ...], ...]
    initial_thresholds: Mapping[AlternativeId, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "alternatives", frozenset(self.alternatives))
        object.__setattr__(self, "preferences", tuple(map(tuple, self.preferences)))
        object.__setattr__(
            self,
            "initial_thresholds",
            {x: as_rational(f) for x, f in self.initial_thresholds.items()},
        )
        self._validate()

    def _validate(self):
        for p in self.preferences:
            if not p:
                raise InvalidConfig("preference ranking is empty")
            if len(set(p)) != len(p):
                raise InvalidConfig(f"preference ranking has duplicates: {p}")
        if not self.weights:
            raise InvalidConfig("weights: need at least one agent")
        for i, w in enumerate(self.weights):
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise InvalidConfig(f"weights: agent {i + 1} has invalid weight {w!r}")
        if not self.alternatives:
            raise InvalidConfig("alternatives: need at least one alternative")
        for x in self.alternatives:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise InvalidConfig(f"alternatives: invalid id {x!r}")
        if len(self.preferences) != len(self.weights):
            raise InvalidConfig(
                f"preferences: got {len(self.preferences)} orders for "
                f"{len(self.weights)} agents"
            )
        for i, p in enumerate(self.preferences):
            if set(p) != self.alternatives:
                raise InvalidConfig(
                    f"preferences: agent {i + 1}'s ranking is not a permutation "
                    f"of the alternative set"
                )
        if set(self.initial_thresholds) != self.alternatives:
            raise InvalidConfig(
                "initial_thresholds: keys must be exactly the alternative set"
            )
        for x, f in self.initial_thresholds.items():
            if f < 0:
                raise InvalidConfig(f"initial_thresholds: alternative {x} has {f} < 0")

    @property
    def total_votes(self) -> int:
        return sum(self.weights)

    @property
    def trivial_all_eliminated(self) -> bool:
        """True when every threshold exceeds the total vote weight.

        Such a game still plays, but ends at stage 1 with everything
        eliminated no matter how anyone votes.
        """
        total = self.total_votes
        return all(f > total for f in self.initial_thresholds.values())


def sincere_choice(
    ranking: Sequence[AlternativeId], live: AbstractSet[AlternativeId]
) -> AlternativeId:
    """The agent's most preferred alternative among those still live."""
    if not live:
        raise ValueError("live set is empty")
    for x in ranking:
        if x in live:
            return x
    raise ValueError("no live alternative appears in the ranking")


def tally(
    profile: Sequence[AlternativeId],
    weights: Sequence[int],
    live: AbstractSet[AlternativeId],
) -> Tally:
    """Total weighted votes per live alternative; zero for the unchosen.

    profile[i] is agent i+1's vote and weights[i] its weight.  A vote for a
    non-live alternative is an error: once eliminated, an alternative can
    never be voted for again.
    """
    counts: Tally = dict.fromkeys(live, 0)
    try:
        for choice, weight in zip(profile, weights, strict=True):
            counts[choice] += weight
    except KeyError:
        agent, choice = next(
            (i, x) for i, x in enumerate(profile, start=1) if x not in counts
        )
        raise ValueError(
            f"agent {agent} voted for non-live alternative {choice}"
        ) from None
    return counts


def eliminate(
    counts: Mapping[AlternativeId, int],
    thresholds: Mapping[AlternativeId, Fraction],
) -> tuple[frozenset[AlternativeId], frozenset[AlternativeId]]:
    """Partition the live set into (survivors, eliminated).

    An alternative is eliminated exactly when its threshold strictly exceeds
    its tally; meeting the threshold exactly is survival.
    """
    if counts.keys() != thresholds.keys():
        raise ValueError("tally and thresholds cover different alternative sets")
    # r >= f as integers: Fraction keeps f in lowest terms with a positive
    # denominator, and an int threshold has denominator 1
    survivors = frozenset(
        x
        for x, r in counts.items()
        if r * (f := thresholds[x]).denominator >= f.numerator
    )
    return survivors, frozenset(counts) - survivors


def _fsum(values) -> tuple[int, int]:
    # exact sum as integers (num, den), den the lcm of the denominators;
    # numerators are first summed per denominator, so homogeneous maps (the
    # common case: every threshold equal) cost integer additions
    by_den: dict[int, int] = {}
    for v in values:
        den = v.denominator
        by_den[den] = by_den.get(den, 0) + v.numerator
    return _over_lcm(by_den)


def _over_lcm(by_den: Mapping[int, int]) -> tuple[int, int]:
    lcm = math.lcm(*by_den)
    return sum(num * (lcm // den) for den, num in by_den.items()), lcm


def update_thresholds(
    prev_thresholds: Mapping[AlternativeId, Fraction],
    counts: Mapping[AlternativeId, int],
    survivors: AbstractSet[AlternativeId],
    eliminated: AbstractSet[AlternativeId],
) -> dict[AlternativeId, Fraction]:
    """Redistribute eliminated alternatives' threshold mass to survivors.

    Each survivor's threshold grows by a share of the eliminated mass
    proportional to its popularity, so the total threshold mass over
    survivors equals the pre-update total exactly.  Two degenerate cases:
    nothing eliminated means nothing moves (thresholds returned unchanged),
    and all-zero survivor popularity splits the mass equally.
    """
    if not survivors:
        raise ValueError("survivor set is empty; the game has already ended")
    survivors = frozenset(survivors)
    eliminated = frozenset(eliminated)
    if survivors & eliminated:
        raise ValueError("survivors and eliminated sets overlap")
    live = survivors | eliminated
    if prev_thresholds.keys() != live:
        raise ValueError("thresholds do not cover exactly the live set")
    if not eliminated:
        return dict(prev_thresholds)
    # survivor x has threshold p/q and popularity a/q, a = counts[x]*q - p;
    # popularities are summed by denominator as integers
    terms = {}
    pop_by_den: dict[int, int] = {}
    for x in survivors:
        f = prev_thresholds[x]
        p, q = f.numerator, f.denominator
        a = counts[x] * q - p
        if a < 0:
            raise ValueError(f"survivor {x} has negative popularity {Fraction(a, q)}")
        pop_by_den[q] = pop_by_den.get(q, 0) + a
        terms[x] = p, q, a
    mn, md = _fsum(prev_thresholds[x] for x in eliminated)
    pn, pd = _over_lcm(pop_by_den)  # total popularity pn/pd
    if pn == 0:
        share = Fraction(mn, md * len(survivors))
        return {x: prev_thresholds[x] + share for x in survivors}
    share = Fraction(mn * pd, md * pn)  # mass / popularity, for every survivor
    # p/q + (a/q)(sn/sd), built as one Fraction (one gcd) per distinct
    # (p, q, a): survivors of one (threshold, tally) class share it
    sn, sd = share.numerator, share.denominator
    new = {
        (p, q, a): Fraction(p * sd + a * sn, q * sd)
        for p, q, a in set(terms.values())
    }
    return {x: new[k] for x, k in terms.items()}


def guarantees_elimination(
    thresholds: Mapping[AlternativeId, Fraction],
    weights: Sequence[int],
) -> bool:
    """True iff total threshold mass strictly exceeds total vote weight.

    While this holds, the tallies cannot all reach their thresholds (they sum
    to the total vote weight), so every stage eliminates at least one
    alternative and the game ends within (initial alternatives - 1) stages.
    """
    num, den = _fsum(thresholds.values())
    return num > sum(weights) * den


def threshold_total(thresholds: Mapping[AlternativeId, Fraction]) -> Fraction:
    """Exact sum of a threshold map's values."""
    return Fraction(*_fsum(thresholds.values()))
