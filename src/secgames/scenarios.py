"""Built-in game instances.

Four families are provided:

* ``static-baseline`` — the complete-information escalation game (the
  defender permits or restricts a privilege escalation, the user stays
  quiet or escalates).
* ``static-bayesian`` — the same interaction when the user is privately
  either adversarial or legitimate.
* ``exercise-qb`` — a two-matrix coordination game under a binary world
  type, with selectable information structures; a compact illustration
  that extra information can lower the informed player's equilibrium
  payoff.
* ``apt`` — the three-stage intrusion campaign: spear-phishing entry
  (with decoy avatar profiles and a honeypot), privilege escalation,
  then sensor access against a monitored industrial process.  Both
  sides carry private types: the user is adversarial or legitimate,
  the defender's security awareness is low or high.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (FiniteDistribution, MalformedInputError, MultiStageGame,
                   PayoffTensor, StageGame)
from .static import BimatrixGame, StaticBayesianGame

DEFENDER_TYPES = ("low", "high")          # security awareness
USER_TYPES = ("adversarial", "legitimate")


# ---------------------------------------------------------------------------
# One-shot scenarios.
# ---------------------------------------------------------------------------

def build_static_baseline(r1: float = 1.0, r2: float = 1.0, r3: float = 1.0,
                          r4: float = 1.0) -> BimatrixGame:
    """Complete-information escalation game.

    Permitting an escalation costs the defender r1 and pays the
    attacker r2; restricting it pays the defender r3 and costs the
    attacker r4.  Doing nothing is free for everyone.
    """
    j1 = np.array([[0.0, -r1], [0.0, r3]])
    j2 = np.array([[0.0, r2], [0.0, -r4]])
    return BimatrixGame(j1, j2, ("permit", "restrict"), ("nop", "escalate"))


def build_static_bayesian(r0: float = 1.0, r1: float = 1.0, r2: float = 1.0,
                          prior_adversarial: float = 0.5) -> StaticBayesianGame:
    """Escalation game with a privately adversarial-or-legitimate user.

    Against an adversarial user, permitting an escalation costs the
    defender r2 (the attacker's gain) while restricting yields r0;
    a legitimate user's escalation helps both sides by r1 when
    permitted and hurts both by r1 when restricted.
    """
    for name, val in (("r0", r0), ("r1", r1), ("r2", r2)):
        if val <= 0:
            raise MalformedInputError(f"{name} must be positive, got {val}")
    if not 0.0 <= prior_adversarial <= 1.0:
        raise MalformedInputError("prior must lie in [0, 1]")
    m1 = m2 = 2
    j1 = np.zeros((m1, m2, 1, 2))
    j2 = np.zeros((m1, m2, 1, 2))
    # adversarial user (type index 0)
    j1[0, 1, 0, 0], j2[0, 1, 0, 0] = -r2, r2
    j1[1, 1, 0, 0], j2[1, 1, 0, 0] = r0, -r0
    # legitimate user (type index 1)
    j1[0, 1, 0, 1], j2[0, 1, 0, 1] = r1, r1
    j1[1, 1, 0, 1], j2[1, 1, 0, 1] = -r1, -r1
    mask1, mask2 = StaticBayesianGame.full_masks(m1, m2, 1, 2)
    return StaticBayesianGame(
        types1=("*",), types2=USER_TYPES,
        prior_about_1=FiniteDistribution([1.0]),
        prior_about_2=FiniteDistribution([prior_adversarial, 1.0 - prior_adversarial]),
        payoffs1=j1, payoffs2=j2, mask1=mask1, mask2=mask2,
        informed1=True, informed2=True,
        actions1=("permit", "restrict"), actions2=("nop", "escalate"))


QB_INFO_VARIANTS = ("uninformed", "p1-informed", "complete")

_QB_CELLS = {
    # (row, col, world type) -> (P1 payoff, P2 payoff)
    "theta1": {("A", "a"): (10.0, 10.0), ("A", "b"): (18.0, 4.0),
               ("B", "a"): (7.0, 19.0), ("B", "b"): (17.0, 17.0)},
    "theta2": {("A", "a"): (10.0, 10.0), ("A", "b"): (18.0, 18.0),
               ("B", "a"): (14.0, 18.0), ("B", "b"): (20.0, 20.0)},
}


def exercise_qb_matrices() -> dict[str, BimatrixGame]:
    """The two complete-information matrices, one per world type."""
    out = {}
    for theta, cells in _QB_CELLS.items():
        j1 = np.array([[cells[(r, c)][0] for c in "ab"] for r in "AB"])
        j2 = np.array([[cells[(r, c)][1] for c in "ab"] for r in "AB"])
        out[theta] = BimatrixGame(j1, j2, ("A", "B"), ("a", "b"))
    return out


def build_exercise_qb(info: str = "uninformed") -> StaticBayesianGame:
    """The two-type coordination exercise under a chosen information
    structure: ``uninformed`` (no one observes the world type, both act
    on the 50/50 prior) or ``p1-informed`` (only player 1 observes it).

    For the per-type complete-information analysis use
    :func:`exercise_qb_matrices` with a bimatrix solver.
    """
    if info == "complete":
        raise MalformedInputError(
            "complete-information variant is two bimatrix games; "
            "use exercise_qb_matrices()")
    if info not in ("uninformed", "p1-informed"):
        raise MalformedInputError(f"info must be one of {QB_INFO_VARIANTS}")
    mats = exercise_qb_matrices()
    # world type is carried on player 1's side; informed1 toggles who sees it
    p1 = np.stack([mats["theta1"].j1, mats["theta2"].j1], axis=2)[:, :, :, None]
    p2 = np.stack([mats["theta1"].j2, mats["theta2"].j2], axis=2)[:, :, :, None]
    mask1, mask2 = StaticBayesianGame.full_masks(2, 2, 2, 1)
    return StaticBayesianGame(
        types1=("theta1", "theta2"), types2=("*",),
        prior_about_1=FiniteDistribution([0.5, 0.5]),
        prior_about_2=FiniteDistribution([1.0]),
        payoffs1=p1, payoffs2=p2, mask1=mask1, mask2=mask2,
        informed1=(info == "p1-informed"), informed2=False,
        actions1=("A", "B"), actions2=("a", "b"))


# ---------------------------------------------------------------------------
# The three-stage intrusion campaign.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AptParameters:
    """Reward/cost parameters of the three-stage campaign.

    Entry stage: ``c1_0``/``c2_0`` are the sandbox deployment fees of a
    low/high-awareness defender, ``r1_0`` the legitimate user's mail
    value, ``r2_0`` the attacker's phishing gain, ``r3_0``/``r4_0`` the
    caught-attacker penalty under a low/high defender and ``r5_0`` the
    decoy's fake reward.  Escalation stage: permit costs ``r2`` against
    an attacker, restrict yields ``r3`` (low) or ``r4`` (high), and a
    legitimate escalation is worth ``r1`` to both.  Access stage:
    monitoring costs ``c_k``; a caught attacker yields ``r2_k`` (low) or
    ``r3_k`` (high); ``r4_k_by_state`` is the per-privilege operating
    reward and ``r1_k_by_state`` the degraded reward under a compromise.

    These defaults are configuration, not ground truth; every instance
    must satisfy the ordering constraints checked by :meth:`violations`.
    """

    c1_0: float = 1.0
    c2_0: float = 2.0
    r1_0: float = 2.0
    r2_0: float = 4.0
    r3_0: float = 3.0
    r4_0: float = 6.0
    r5_0: float = 1.0
    r1: float = 2.0
    r2: float = 4.0
    r3: float = 3.0
    r4: float = 6.0
    c_k: float = 1.0
    r2_k: float = 2.0
    r3_k: float = 4.0
    r4_k_by_state: tuple[float, float, float, float] = (2.0, 4.0, 8.0, 12.0)
    r1_k_by_state: tuple[float, float, float, float] = (0.0, 1.0, 2.0, 3.0)
    prior_adversarial: float = 0.5
    prior_high_awareness: float = 0.5
    literal_avatar_cost: bool = False

    def violations(self) -> list[str]:
        v = []
        if not self.r4 > self.r3 > 0:
            v.append(f"need r4 > r3 > 0, got r4={self.r4}, r3={self.r3}")
        if not self.c2_0 > self.c1_0:
            v.append(f"need c2_0 > c1_0, got c2_0={self.c2_0}, c1_0={self.c1_0}")
        if not self.r4_0 > self.r3_0:
            v.append(f"need r4_0 > r3_0, got r4_0={self.r4_0}, r3_0={self.r3_0}")
        if not self.r5_0 > 0:
            v.append(f"need r5_0 > 0, got {self.r5_0}")
        if not self.r3_k > self.r2_k > self.c_k > 0:
            v.append(f"need r3_k > r2_k > c_k > 0, got "
                     f"{self.r3_k}, {self.r2_k}, {self.c_k}")
        if len(self.r4_k_by_state) != 4 or len(self.r1_k_by_state) != 4:
            v.append("per-state reward tables must cover the 4 privilege levels")
        else:
            for x, (hi, lo) in enumerate(zip(self.r4_k_by_state, self.r1_k_by_state)):
                if not hi - lo > self.c_k:
                    v.append(f"need r4_k(x) - r1_k(x) > c_k at x={x}: "
                             f"{hi} - {lo} <= {self.c_k}")
        for name in ("prior_adversarial", "prior_high_awareness"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                v.append(f"{name} must lie in [0, 1], got {p}")
        return v


def default_apt_parameters() -> AptParameters:
    """Documented defaults satisfying every ordering constraint."""
    return AptParameters()


# Entry stage: states 0=external sender, 1=internal sender.
ENTRY_STATES = ("external", "internal")
# Defender deploys a mail sandbox nowhere / on the employee's machine /
# on the executive's machine; the user mails the employee, the
# executive, or a decoy avatar profile.
ENTRY_ACTIONS1 = ("none", "employee-av", "ceo-av")
ENTRY_ACTIONS2 = ("employee", "ceo", "avatar")
MID_STATES = ("honeypot", "employee", "ceo")
MID_ACTIONS1 = ("permit", "restrict")
MID_ACTIONS2 = ("nop", "escalate")
FINAL_STATES = ("priv0", "priv1", "priv2", "priv3")
FINAL_ACTIONS1 = ("nop", "monitor")
FINAL_ACTIONS2 = ("nop", "access")


def _entry_stage(p: AptParameters) -> StageGame:
    n1, n2 = 2, 2
    S, m1, m2 = 2, 3, 3
    j1 = np.zeros((S, m1, m2, n1, n2))
    j2 = np.zeros((S, m1, m2, n1, n2))
    c0 = {0: p.c1_0, 1: p.c2_0}       # deployment fee by defender type
    r0 = {0: p.r3_0, 1: p.r4_0}      # caught-attacker penalty by defender type
    for t1 in range(n1):
        # legitimate user (type index 1): mail is worth r1_0, the
        # defender pays the fee whenever a sandbox is deployed; the
        # avatar column is masked for this type.
        for a2 in (0, 1):
            j1[:, 0, a2, t1, 1] = 0.0
            j2[:, 0, a2, t1, 1] = p.r1_0
            for a1 in (1, 2):
                j1[:, a1, a2, t1, 1] = -c0[t1]
                j2[:, a1, a2, t1, 1] = p.r1_0
        for a1 in (1, 2):
            j1[:, a1, 2, t1, 1] = -c0[t1]

        # adversarial user (type index 0)
        j1[:, 0, 0, t1, 0], j2[:, 0, 0, t1, 0] = -p.r2_0, p.r2_0
        j1[:, 0, 1, t1, 0], j2[:, 0, 1, t1, 0] = -p.r2_0, p.r2_0
        j1[:, 0, 2, t1, 0], j2[:, 0, 2, t1, 0] = 0.0, p.r5_0
        j1[:, 1, 0, t1, 0], j2[:, 1, 0, t1, 0] = -c0[t1], -r0[t1]
        j1[:, 1, 1, t1, 0], j2[:, 1, 1, t1, 0] = -c0[t1], p.r2_0
        j1[:, 1, 2, t1, 0], j2[:, 1, 2, t1, 0] = -c0[t1], p.r5_0
        j1[:, 2, 0, t1, 0], j2[:, 2, 0, t1, 0] = -c0[t1], p.r2_0
        j1[:, 2, 1, t1, 0], j2[:, 2, 1, t1, 0] = -c0[t1], -r0[t1]
        avatar_cost = p.c1_0 if p.literal_avatar_cost else c0[t1]
        j1[:, 2, 2, t1, 0], j2[:, 2, 2, t1, 0] = -avatar_cost, p.r5_0

    mask1 = np.ones((S, n1, m1), dtype=bool)
    mask2 = np.ones((S, n2, m2), dtype=bool)
    mask2[:, 1, 2] = False     # a legitimate user never contacts the decoy

    # next state: honeypot / employee machine / executive machine
    tr = np.zeros((S, m1, m2), dtype=int)
    # external sender: no sandbox -> mail lands where aimed, decoys trap
    tr[0, 0] = (1, 2, 0)
    # sandbox on the employee machine blocks employee mail and decoys
    tr[0, 1] = (0, 2, 0)
    # sandbox on the executive machine blocks executive mail and decoys
    tr[0, 2] = (1, 0, 0)
    # internal sender: delivery ignores the defender's deployment
    for a1 in range(m1):
        tr[1, a1] = (1, 2, 0)
    return StageGame(0, ENTRY_STATES, ENTRY_ACTIONS1, ENTRY_ACTIONS2,
                     PayoffTensor(j1, mask1), PayoffTensor(j2, mask2),
                     tr, MID_STATES)


def _escalation_stage(p: AptParameters) -> StageGame:
    n1, n2 = 2, 2
    S, m1, m2 = 3, 2, 2
    j1 = np.zeros((S, m1, m2, n1, n2))
    j2 = np.zeros((S, m1, m2, n1, n2))
    r0 = {0: p.r3, 1: p.r4}          # restrict reward by defender type
    for t1 in range(n1):
        # adversarial user
        j1[:, 0, 1, t1, 0], j2[:, 0, 1, t1, 0] = -p.r2, p.r2
        j1[:, 1, 1, t1, 0], j2[:, 1, 1, t1, 0] = r0[t1], -r0[t1]
        # legitimate user
        j1[:, 0, 1, t1, 1], j2[:, 0, 1, t1, 1] = p.r1, p.r1
        j1[:, 1, 1, t1, 1], j2[:, 1, 1, t1, 1] = -p.r1, -p.r1
    mask1 = np.ones((S, n1, m1), dtype=bool)
    mask2 = np.ones((S, n2, m2), dtype=bool)

    tr = np.zeros((S, m1, m2), dtype=int)
    # honeypot: zero privilege no matter what
    tr[0, :, :] = 0
    # employee machine: permit+escalate reaches level 2, otherwise level 1
    tr[1, 0] = (1, 2)
    tr[1, 1] = (1, 1)
    # executive machine: permit+escalate reaches level 3, otherwise level 2
    tr[2, 0] = (2, 3)
    tr[2, 1] = (2, 2)
    return StageGame(1, MID_STATES, MID_ACTIONS1, MID_ACTIONS2,
                     PayoffTensor(j1, mask1), PayoffTensor(j2, mask2),
                     tr, FINAL_STATES)


def _access_stage(p: AptParameters) -> StageGame:
    n1, n2 = 2, 2
    S, m1, m2 = 4, 2, 2
    j1 = np.zeros((S, m1, m2, n1, n2))
    j2 = np.zeros((S, m1, m2, n1, n2))
    r0k = {0: p.r2_k, 1: p.r3_k}     # monitoring reward by defender type
    for x in range(S):
        r4x = p.r4_k_by_state[x]
        r1x = p.r1_k_by_state[x]
        for t1 in range(n1):
            # adversarial user
            j1[x, 0, 1, t1, 0], j2[x, 0, 1, t1, 0] = r1x, r4x - r1x
            j1[x, 1, 0, t1, 0], j2[x, 1, 0, t1, 0] = -p.c_k, 0.0
            j1[x, 1, 1, t1, 0], j2[x, 1, 1, t1, 0] = r0k[t1] - p.c_k, -r0k[t1]
            # legitimate user
            j1[x, 0, 1, t1, 1], j2[x, 0, 1, t1, 1] = r4x, r4x
            j1[x, 1, 0, t1, 1], j2[x, 1, 0, t1, 1] = -p.c_k, 0.0
            j1[x, 1, 1, t1, 1], j2[x, 1, 1, t1, 1] = r4x - p.c_k, r4x
    mask1 = np.ones((S, n1, m1), dtype=bool)
    mask2 = np.ones((S, n2, m2), dtype=bool)
    # terminal stage: the state freezes
    tr = np.tile(np.arange(S, dtype=int)[:, None, None], (1, m1, m2))
    return StageGame(2, FINAL_STATES, FINAL_ACTIONS1, FINAL_ACTIONS2,
                     PayoffTensor(j1, mask1), PayoffTensor(j2, mask2),
                     tr, FINAL_STATES)


def build_apt_game(p: AptParameters | None = None,
                   initial_state: str = "external") -> MultiStageGame:
    """Assemble the three-stage campaign from validated parameters."""
    p = p or default_apt_parameters()
    problems = p.violations()
    if problems:
        raise MalformedInputError("; ".join(problems))
    return MultiStageGame(
        horizon=2,
        stages=(_entry_stage(p), _escalation_stage(p), _access_stage(p)),
        types1=DEFENDER_TYPES, types2=USER_TYPES,
        prior_about_1=FiniteDistribution(
            [1.0 - p.prior_high_awareness, p.prior_high_awareness]),
        prior_about_2=FiniteDistribution(
            [p.prior_adversarial, 1.0 - p.prior_adversarial]),
        initial_state=initial_state)


SCENARIOS = {
    "static-baseline": "complete-information escalation game (ne)",
    "static-bayesian": "escalation game with a private user type (bne, signaling)",
    "exercise-qb": "two-type coordination exercise (bne; --info variants)",
    "apt": "three-stage intrusion campaign with two-sided types (pbne)",
}
