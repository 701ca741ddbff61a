"""Independent naive reference engine, used only as a test oracle.

Direct transcription of the stage rules with per-stage position renumbering
and an explicit predecessor-index mapping (new position -> old position).
Shares no code with the package under test: plain lists, linear scans,
Fraction arithmetic.
"""

from fractions import Fraction
from itertools import permutations, product


def naive_game(orders, weights, thresholds, rule):
    """Play one repeated game naively.

    orders: per-agent rankings over original alternative names.
    thresholds: initial threshold per original name.
    rule: "updating" or "static".
    Returns (survivor_sets, outcome_kind, winner_name_or_None) where
    survivor_sets lists, stage by stage, the original names that survived.
    """
    names = sorted(thresholds)  # current position -> original name
    f = [Fraction(thresholds[x]) for x in names]
    survivor_sets = []
    guard = 0
    while len(names) >= 2:
        guard += 1
        if guard > 1000:
            raise RuntimeError("naive engine failed to stop")
        r = [0] * len(names)
        for order, w in zip(orders, weights):
            for x in order:
                if x in names:
                    r[names.index(x)] += w
                    break
        keep = [p for p in range(len(names)) if not f[p] > r[p]]
        drop = [p for p in range(len(names)) if f[p] > r[p]]
        survivor_sets.append({names[p] for p in keep})
        if len(keep) <= 1:
            if keep:
                return survivor_sets, "winner", names[keep[0]]
            return survivor_sets, "all_eliminated", None
        if not drop:
            return survivor_sets, "non_terminating", None
        if rule == "updating":
            new_f = naive_update(f, r, keep)
        else:
            new_f = [f[p] for p in keep]
        names = [names[p] for p in keep]
        f = new_f
    if names:
        return survivor_sets, "winner", names[0]
    return survivor_sets, "all_eliminated", None


def naive_update(f, r, keep):
    """The updating rule on positions: thresholds f, tallies r, kept
    positions keep (in order).  Returns the kept positions' new thresholds."""
    total_prev = sum(f)
    kept_prev = sum(f[p] for p in keep)
    pool = total_prev - kept_prev
    pops = [r[p] - f[p] for p in keep]
    denom = sum(pops)
    if denom == 0:
        return [f[p] + pool / len(keep) for p in keep]
    return [f[p] + (a / denom) * pool for p, a in zip(keep, pops)]


def threshold_grids(m, n):
    """A deterministic spread of initial threshold maps for an (m, n) game."""
    return [
        {x: Fraction(2 * n, m) for x in range(1, m + 1)},
        {x: Fraction(1) for x in range(1, m + 1)},
        {x: Fraction(1, 2) for x in range(1, m + 1)},
        {x: Fraction(x, 2) for x in range(1, m + 1)},
        {x: Fraction(n + 1) for x in range(1, m + 1)},
        {x: Fraction(x - 1) for x in range(1, m + 1)},
    ]


def exhaustive_profiles(m, n):
    """Every combination of strict orders for n agents over m alternatives."""
    return product(permutations(range(1, m + 1)), repeat=n)


def closed_form_rounds_played(m, n):
    """Exact mean rounds played by a sweep game (n unit-weight agents,
    uniform preferences over m alternatives, thresholds 2n/m, updating
    rule) when m > 2n.

    The threshold 2n/m is below one vote, so every voted alternative
    survives round 1 and no agent is displaced.  If all n top choices agree
    (probability m**(1 - n)) that choice wins in round 1.  Otherwise k >= 2
    survivors share the eliminated mass (m - k)2n/m in proportion to
    c_x - 2n/m, which lifts each threshold above its unchanged tally c_x
    because 2n > n; round 2 eliminates everything.
    """
    if not m > 2 * n:
        raise ValueError(f"closed form needs m > 2n, got m={m}, n={n}")
    return 2 - Fraction(1, m ** (n - 1))
