"""Gateway election rules (paper §3, "Gateway election rules") and the
pluggable policy layer on top of them.

The paper's priority order:

1. higher battery-level band (upper > boundary > lower);
2. among the highest band, smallest distance to the grid center
   (a central host likely stays in the grid longest);
3. smallest host ID as the final tiebreak.

The GRID baseline elects purely by rule 2+3 (it is not energy-aware);
``energy_aware=False`` reproduces that.

An :class:`ElectionPolicy` swaps the *sort key* while leaving every
other piece of the distributed election untouched (HELLO beaconing,
the listening window, conflict resolution, the strictly-higher-band
takeover rule of §3.2).  A policy key must be a total order over
candidates — distinct hosts must never compare equal, or the
distributed election stops converging — so every built-in key ends in
``-id``.  The registry holds the paper rule (``"paper"``), GRID's
non-energy-aware rule (``"grid"``), and three contributed policies:

- ``"dwell"``: replace the distance proxy with the host's advertised
  straight-line grid dwell estimate (§3.2's heuristic, normally used
  for sleep timers) — prefer the host whose current mobility segment
  keeps it in-cell longest;
- ``"load"``: penalize hosts that recently served as gateway, spreading
  the gateway duty (and its energy drain) across the grid's members;
- ``"random"``: a deterministic pseudo-random tiebreak control that
  discards the distance rule, isolating how much the paper's careful
  tiebreaks actually buy.

Policies whose keys read the advertised context fields declare
``needs_context = True``; only then do hosts compute and beacon the
extra fields, so default-policy runs stay bit-for-bit identical to the
pre-policy kernel (the golden-trace harness pins this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.energy.profile import EnergyLevel


@dataclass(frozen=True)
class Candidate:
    """One contender, as advertised in its HELLO message.

    ``dwell_s`` and ``tenure_s`` are optional election context: the
    advertiser's straight-line grid dwell estimate and its cumulative
    recent gateway tenure.  They stay ``None`` (and off the wire)
    unless the run's policy declares ``needs_context``.
    """

    id: int
    level: EnergyLevel
    dist: float
    dwell_s: Optional[float] = None
    tenure_s: Optional[float] = None

    def key(self, energy_aware: bool = True):
        """The paper's sort key: maximal key wins the election.

        ``-dist`` prefers hosts nearer the grid center; ``-id`` makes
        the smallest ID win the final tiebreak.
        """
        level = int(self.level) if energy_aware else 0
        return (level, -self.dist, -self.id)


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class ElectionPolicy:
    """A gateway-election ranking: ``key()`` maps a candidate to a
    comparable tuple; the maximal tuple wins.

    Subclasses set ``name`` (the registry / config / CLI identifier)
    and ``needs_context`` (True when the key reads ``dwell_s`` /
    ``tenure_s``, which makes hosts compute and advertise them).
    Keys must be deterministic functions of the candidate alone —
    every host ranking the same advertised set must agree — and a
    total order over distinct host IDs.
    """

    name = "base"
    needs_context = False

    def key(self, cand: Candidate, energy_aware: bool = True) -> Tuple:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ElectionPolicy {self.name}>"


class PaperPolicy(ElectionPolicy):
    """The paper's rules 1-3, exactly :meth:`Candidate.key`."""

    name = "paper"

    def key(self, cand: Candidate, energy_aware: bool = True) -> Tuple:
        return cand.key(energy_aware)


class GridPolicy(ElectionPolicy):
    """GRID's non-energy-aware election (rules 2+3 only), available to
    ECGRID as an ablation: battery bands never enter the key."""

    name = "grid"

    def key(self, cand: Candidate, energy_aware: bool = True) -> Tuple:
        return cand.key(False)


class DwellPolicy(ElectionPolicy):
    """Prefer the host whose current mobility segment keeps it in-cell
    longest.

    Distance-to-center is the paper's *proxy* for expected dwell; this
    policy uses the advertised straight-line dwell estimate directly,
    bucketed so jittery GPS extrapolations don't reorder near-ties,
    then falls back to the paper's distance + ID rules.  Energy bands
    stay the primary criterion (it is still ECGRID).
    """

    name = "dwell"
    needs_context = True
    #: Bucket width: dwell differences below this are noise, not signal.
    quantum_s = 5.0

    def key(self, cand: Candidate, energy_aware: bool = True) -> Tuple:
        level = int(cand.level) if energy_aware else 0
        dwell = cand.dwell_s if cand.dwell_s is not None else 0.0
        return (level, int(dwell // self.quantum_s), -cand.dist, -cand.id)


class LoadPolicy(ElectionPolicy):
    """Penalize recent gateway tenure: among the best band, the host
    that has served the least total gateway time wins, spreading the
    beaconing/forwarding drain across the grid's members.  Tenure is
    bucketed so sub-bucket differences defer to the paper's rules.
    """

    name = "load"
    needs_context = True
    quantum_s = 10.0

    def key(self, cand: Candidate, energy_aware: bool = True) -> Tuple:
        level = int(cand.level) if energy_aware else 0
        tenure = cand.tenure_s if cand.tenure_s is not None else 0.0
        return (level, -int(tenure // self.quantum_s), -cand.dist, -cand.id)


class RandomPolicy(ElectionPolicy):
    """Control arm: replace rules 2+3 with a pseudo-random tiebreak.

    The "randomness" is a fixed multiplicative hash of the host ID
    (Knuth's 2654435761), so every host computes the same winner from
    the same candidate set and no RNG stream is consumed — drawing real
    randomness here would desynchronize the hosts' views *and* perturb
    the simulation's RNG accounting.
    """

    name = "random"

    def key(self, cand: Candidate, energy_aware: bool = True) -> Tuple:
        level = int(cand.level) if energy_aware else 0
        mix = ((cand.id + 1) * 2654435761) % (1 << 32)
        return (level, mix, -cand.id)


#: Registered policies by name ("paper" is the default everywhere).
ELECTION_POLICIES: Dict[str, ElectionPolicy] = {
    p.name: p
    for p in (
        PaperPolicy(),
        GridPolicy(),
        DwellPolicy(),
        LoadPolicy(),
        RandomPolicy(),
    )
}

DEFAULT_POLICY_NAME = "paper"


def get_policy(name: str) -> ElectionPolicy:
    """The registered policy instance, or ``ValueError`` listing choices."""
    try:
        return ELECTION_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown election policy {name!r}; "
            f"choose from {sorted(ELECTION_POLICIES)}"
        ) from None


# ----------------------------------------------------------------------
# The election itself
# ----------------------------------------------------------------------
def elect(
    candidates: Iterable[Candidate],
    energy_aware: bool = True,
    policy: ElectionPolicy = ELECTION_POLICIES[DEFAULT_POLICY_NAME],
) -> Optional[Candidate]:
    """The winner under ``policy`` (default: the paper's rules), or
    None with no candidates.

    Deterministic: every host evaluating the same candidate set picks
    the same winner, which is what makes the distributed election
    converge without a coordinator.
    """
    best: Optional[Candidate] = None
    best_key = None
    for cand in candidates:
        k = policy.key(cand, energy_aware)
        if best_key is None or k > best_key:
            best = cand
            best_key = k
    return best


def beats(
    a: Candidate,
    b: Candidate,
    energy_aware: bool = True,
    policy: ElectionPolicy = ELECTION_POLICIES[DEFAULT_POLICY_NAME],
) -> bool:
    """True if candidate ``a`` outranks ``b`` under ``policy`` (default:
    the paper's rules)."""
    return policy.key(a, energy_aware) > policy.key(b, energy_aware)
