"""Built-in benchmark MDPs.

``gridworld-small`` is an exactly solvable navigation task (around 600
full states, 5 exogenous variables) exposing analytic tables.
``factory-desk`` and ``crowd-desk`` are desk-scale generative domains that
keep the structural phenomena of much larger task-stream and crowded
navigation problems: several variables that influence the reward only
jointly, and distractor variables whose dynamics are coupled to the ones
that matter. ``random_block_mdp`` generates small two-block MDPs that
satisfy the reduction exactness conditions by construction, plus
perturbation helpers that violate exactly one condition at a time.

Exogenous processes never react to the agent by construction; every
builder is pure given ``(spec, seed)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import reduce as _reduce

import numpy as np

from .core import (
    FactoredState,
    GenerativeMdp,
    Mask,
    ReducedSpace,
    TabularFullMdp,
    VariableSpec,
)

_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))  # up, down, left, right
ACTION_NAMES = ("up", "down", "left", "right", "stay")


def _move_cell(cell: int, direction: int, width: int, height: int) -> int:
    r, c = divmod(cell, width)
    dr, dc = _MOVES[direction]
    r2, c2 = r + dr, c + dc
    if 0 <= r2 < height and 0 <= c2 < width:
        return r2 * width + c2
    return cell


def _grid_move_kernel(width: int, height: int, slip_prob: float) -> np.ndarray:
    """(cells, 5, cells) kernel: 4 moves with slip, plus a reliable stay."""
    cells = width * height
    kernel = np.zeros((cells, 5, cells))
    for cell in range(cells):
        for a in range(4):
            kernel[cell, a, _move_cell(cell, a, width, height)] += 1.0 - slip_prob
            for d in range(4):
                kernel[cell, a, _move_cell(cell, d, width, height)] += slip_prob / 4.0
        kernel[cell, 4, cell] = 1.0
    return kernel


def _sticky_rows(card: int, flip_prob: float) -> np.ndarray:
    """(card, card) chain: keep the value, or move to a uniform other one."""
    rows = np.full((card, card), flip_prob / max(1, card - 1))
    np.fill_diagonal(rows, 1.0 - flip_prob)
    if card == 1:
        rows[:] = 1.0
    return rows


# ---------------------------------------------------------------------------
# Gridworld
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridworldSpec:
    """Small navigation world with a moving goal, a trap, and distractors.

    The goal sits at one of two cells; which one is active is variable
    ``goal_var``, whose flips are driven jointly by the two ``xor_drivers``
    (the goal moves only when the drivers disagree, so neither driver
    alone carries any information about it). Variable ``trap_var`` arms a
    penalty cell on the corridor between the two goal cells. Remaining
    variables are independent distractor chains. Set ``xor_drivers=None``
    for fully independent chains.
    """

    width: int = 5
    height: int = 4
    n_exo_vars: int = 5
    goal_cells: tuple[int, int] = (1, 3)
    trap_cell: int = 2
    start_cell: int = 17
    goal_reward: float = 1.0
    crash_penalty: float = 2.0
    move_reward: float = 0.0
    slip_prob: float = 0.05
    goal_var: int = 0
    trap_var: int = 2
    xor_drivers: tuple[int, int] | None = (1, 3)
    goal_flip_scale: float = 0.5
    trap_flip_prob: float = 0.2
    distractor_flip_prob: float = 0.3
    discount: float = 0.9
    state_budget: int = 10_000


def build_gridworld(spec: GridworldSpec | None = None, seed: int = 0) -> TabularFullMdp:
    """Build the gridworld as an analytic tabular MDP.

    The result supports exact planning, exact policy evaluation, and the
    reduction-condition checker, while also serving as a black-box
    generative model.
    """
    spec = spec or GridworldSpec()
    cells = spec.width * spec.height
    m = spec.n_exo_vars
    roles_needed = [spec.goal_var, spec.trap_var]
    if spec.xor_drivers is not None:
        roles_needed += list(spec.xor_drivers)
    if m <= max(roles_needed):
        raise ValueError(f"n_exo_vars={m} too small for the configured roles")
    if len(set(roles_needed)) != len(roles_needed):
        raise ValueError("goal, trap, and driver variables must be distinct")
    for cell in (*spec.goal_cells, spec.trap_cell, spec.start_cell):
        if not 0 <= cell < cells:
            raise ValueError(f"cell {cell} outside the {spec.width}x{spec.height} grid")
    if cells * 2**m > spec.state_budget:
        raise ValueError(
            f"gridworld would have {cells * 2 ** m} full states, "
            f"over the budget of {spec.state_budget}"
        )

    names = {spec.goal_var: "goal-position", spec.trap_var: "trap-active"}
    if spec.xor_drivers is not None:
        names[spec.xor_drivers[0]] = "goal-driver-a"
        names[spec.xor_drivers[1]] = "goal-driver-b"
    specs = tuple(
        VariableSpec(i, 2, names.get(i, f"distractor-{i}")) for i in range(m)
    )
    space = ReducedSpace(1, Mask.full(m), [2] * m)
    x_count = space.n_exo

    driver_set = set(spec.xor_drivers or ())

    def next_dist(i: int, digits: tuple[int, ...]) -> np.ndarray:
        if i in driver_set:
            return np.array([0.5, 0.5])
        if i == spec.goal_var:
            if spec.xor_drivers is not None:
                a, b = spec.xor_drivers
                armed = digits[a] ^ digits[b]
                flip = spec.goal_flip_scale * armed
            else:
                flip = spec.goal_flip_scale * 0.5
            cur = digits[i]
            row = np.empty(2)
            row[cur] = 1.0 - flip
            row[1 - cur] = flip
            return row
        if i == spec.trap_var:
            return _sticky_rows(2, spec.trap_flip_prob)[digits[i]]
        return _sticky_rows(2, spec.distractor_flip_prob)[digits[i]]

    exo_kernel = np.empty((x_count, x_count))
    for code in range(x_count):
        digits = space.decode_exo(code)
        exo_kernel[code] = _reduce(np.kron, [next_dist(i, digits) for i in range(m)])

    move = _grid_move_kernel(spec.width, spec.height, spec.slip_prob)
    endo_kernel = np.broadcast_to(
        move[:, :, None, :], (cells, 5, x_count, cells)
    ).copy()

    reward_tables = [np.zeros((cells, 2, 5)) for _ in range(m)]
    goal_table = reward_tables[spec.goal_var]
    goal_table[:] = spec.move_reward
    for v, cell in enumerate(spec.goal_cells):
        goal_table[cell, v, :] += spec.goal_reward
    trap_table = reward_tables[spec.trap_var]
    trap_table[spec.trap_cell, 1, :] = -spec.crash_penalty

    init_endo = np.zeros(cells)
    init_endo[spec.start_cell] = 1.0
    init_exo = np.full(x_count, 1.0 / x_count)

    return TabularFullMdp(
        endo_kernel=endo_kernel,
        exo_kernel=exo_kernel,
        reward_tables=reward_tables,
        init_endo=init_endo,
        init_exo=init_exo,
        discount=spec.discount,
        variable_specs=specs,
        r_max=spec.goal_reward + spec.crash_penalty + abs(spec.move_reward),
        name="gridworld",
    )


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorySpec:
    """Task-stream world with jointly reward-relevant variables.

    Executing pays ``match_reward`` per ready task variable and charges
    ``mismatch_penalty`` per unready one; the penalty is calibrated so
    that executing is only profitable when every task variable is ready.
    A mask that sees one task variable at a time therefore never improves
    on the empty mask. Distractor variables carry no reward.
    """

    n_task_vars: int = 3
    n_distractors: int = 3
    match_reward: float = 1.0
    mismatch_penalty: float = 2.5
    task_flip_prob: float = 0.25
    distractor_flip_prob: float = 0.3
    discount: float = 0.9


ACTION_WAIT = 0
ACTION_EXECUTE = 1


class FactoryMdp(GenerativeMdp):
    """Black-box generative model for the task-stream world."""

    name = "factory"

    def __init__(self, spec: FactorySpec, seed: int = 0):
        self.spec = spec
        k, d = spec.n_task_vars, spec.n_distractors
        self._specs = tuple(
            VariableSpec(i, 2, f"task-{i}" if i < k else f"distractor-{i - k}")
            for i in range(k + d)
        )
        self._flip = np.array(
            [spec.task_flip_prob] * k + [spec.distractor_flip_prob] * d
        )

    @property
    def action_count(self) -> int:
        return 2

    @property
    def endo_cardinality(self) -> int:
        return 1

    @property
    def variable_specs(self) -> tuple[VariableSpec, ...]:
        return self._specs

    @property
    def discount(self) -> float:
        return self.spec.discount

    @property
    def r_max(self) -> float:
        return self.spec.n_task_vars * max(
            self.spec.match_reward, self.spec.mismatch_penalty
        )

    def sample_transition(self, state, action, rng):
        flips = rng.random(len(self._flip)) < self._flip
        exo = tuple(int(v ^ f) for v, f in zip(state.exo, flips))
        return FactoredState(0, exo)

    def reward_component(self, i, endo, exo_value, action):
        if action != ACTION_EXECUTE or i >= self.spec.n_task_vars:
            return 0.0
        if exo_value == 1:
            return self.spec.match_reward
        return -self.spec.mismatch_penalty

    def sample_initial(self, rng):
        return FactoredState(0, tuple(int(v) for v in rng.integers(0, 2, self.m)))


def build_factory(spec: FactorySpec | None = None, seed: int = 0) -> FactoryMdp:
    return FactoryMdp(spec or FactorySpec(), seed)


# ---------------------------------------------------------------------------
# Crowd
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrowdSpec:
    """Navigation among wandering agents that can carry objects.

    Object variables take values ``0..len(table_cells)-1`` (resting on a
    table cell) or ``len(table_cells)+k`` (carried by agent ``k``). Agents
    perform lazy random walks; a manipulable object standing where an
    agent stands may be picked up, and a carried object may be dropped
    onto any table cell its carrier crosses. Hazard variables are
    independent occupancy bits over ``hazard_cells`` with a crash penalty.
    Only the goal object and the hazards touch the reward.
    """

    width: int = 3
    height: int = 3
    n_agents: int = 2
    n_objects: int = 2
    table_cells: tuple[int, ...] = (0, 2, 6)
    hazard_cells: tuple[int, ...] = (4,)
    manipulable: tuple[bool, ...] = (True, False)
    goal_object: int = 0
    goal_reward: float = 8.0
    crash_penalty: float = 2.0
    pickup_prob: float = 1.0
    drop_prob: float = 0.4
    agent_move_prob: float = 0.8
    hazard_flip_prob: float = 0.15
    slip_prob: float = 0.05
    start_cell: int = 4
    discount: float = 0.9


class CrowdMdp(GenerativeMdp):
    """Black-box generative model for the crowded navigation world."""

    name = "crowd"

    def __init__(self, spec: CrowdSpec, seed: int = 0):
        if len(spec.manipulable) != spec.n_objects:
            raise ValueError("need one manipulable flag per object")
        if not 0 <= spec.goal_object < spec.n_objects:
            raise ValueError("goal object index out of range")
        self.spec = spec
        self._cells = spec.width * spec.height
        self._n_tables = len(spec.table_cells)
        obj_card = self._n_tables + spec.n_agents
        specs = []
        for j in range(spec.n_objects):
            specs.append(VariableSpec(len(specs), obj_card, f"object-{j}"))
        for k in range(spec.n_agents):
            specs.append(VariableSpec(len(specs), self._cells, f"agent-{k}"))
        for h in range(len(spec.hazard_cells)):
            specs.append(VariableSpec(len(specs), 2, f"hazard-{h}"))
        self._specs = tuple(specs)
        self._agent_offset = spec.n_objects
        self._hazard_offset = spec.n_objects + spec.n_agents
        self._table_index = {cell: i for i, cell in enumerate(spec.table_cells)}

    @property
    def action_count(self) -> int:
        return 5

    @property
    def endo_cardinality(self) -> int:
        return self._cells

    @property
    def variable_specs(self) -> tuple[VariableSpec, ...]:
        return self._specs

    @property
    def discount(self) -> float:
        return self.spec.discount

    @property
    def r_max(self) -> float:
        return self.spec.goal_reward + self.spec.crash_penalty * len(
            self.spec.hazard_cells
        )

    def agent_variable_ids(self) -> tuple[int, ...]:
        return tuple(
            range(self._agent_offset, self._agent_offset + self.spec.n_agents)
        )

    def sample_transition(self, state, action, rng):
        spec = self.spec
        exo = state.exo
        n_obj, n_ag = spec.n_objects, spec.n_agents

        agents = []
        for k in range(n_ag):
            pos = exo[self._agent_offset + k]
            if rng.random() < spec.agent_move_prob:
                pos = _move_cell(pos, int(rng.integers(4)), spec.width, spec.height)
            agents.append(pos)

        objects = []
        for j in range(n_obj):
            v = exo[j]
            if v < self._n_tables:
                cell = spec.table_cells[v]
                if spec.manipulable[j]:
                    carrier = next((k for k in range(n_ag) if agents[k] == cell), None)
                    if carrier is not None and rng.random() < spec.pickup_prob:
                        v = self._n_tables + carrier
            else:
                pos = agents[v - self._n_tables]
                table = self._table_index.get(pos)
                if table is not None and rng.random() < spec.drop_prob:
                    v = table
            objects.append(v)

        hazards = []
        for h in range(len(spec.hazard_cells)):
            bit = exo[self._hazard_offset + h]
            if rng.random() < spec.hazard_flip_prob:
                bit = 1 - bit
            hazards.append(bit)

        robot = state.endo
        if action < 4:
            direction = action
            if rng.random() < spec.slip_prob:
                direction = int(rng.integers(4))
            robot = _move_cell(robot, direction, spec.width, spec.height)

        return FactoredState(robot, tuple(objects + agents + hazards))

    def reward_component(self, i, endo, exo_value, action):
        spec = self.spec
        if i == spec.goal_object:
            if exo_value < self._n_tables and endo == spec.table_cells[exo_value]:
                return spec.goal_reward
            return 0.0
        if i >= self._hazard_offset:
            cell = spec.hazard_cells[i - self._hazard_offset]
            if exo_value == 1 and endo == cell:
                return -spec.crash_penalty
        return 0.0

    def reward(self, state, action):
        spec = self.spec
        total = 0.0
        v = state.exo[spec.goal_object]
        if v < self._n_tables and state.endo == spec.table_cells[v]:
            total += spec.goal_reward
        for h, cell in enumerate(spec.hazard_cells):
            if state.endo == cell and state.exo[self._hazard_offset + h] == 1:
                total -= spec.crash_penalty
        return total

    def sample_initial(self, rng):
        spec = self.spec
        objects = [int(rng.integers(self._n_tables)) for _ in range(spec.n_objects)]
        agents = [int(rng.integers(self._cells)) for _ in range(spec.n_agents)]
        hazards = [int(rng.integers(2)) for _ in range(len(spec.hazard_cells))]
        return FactoredState(spec.start_cell, tuple(objects + agents + hazards))


def build_crowd(spec: CrowdSpec | None = None, seed: int = 0) -> CrowdMdp:
    return CrowdMdp(spec or CrowdSpec(), seed)


# ---------------------------------------------------------------------------
# Random analytic toys
# ---------------------------------------------------------------------------


def build_random_mdp(
    seed: int,
    *,
    endo_cardinality: int = 4,
    cards: tuple[int, ...] = (3, 2),
    n_actions: int = 2,
    discount: float = 0.9,
    reward_low: float = -1.0,
    reward_high: float = 1.0,
) -> TabularFullMdp:
    """Fully random analytic MDP: coupled exo kernel, exo-dependent endo
    kernel, random rewards on every variable."""
    rng = np.random.default_rng(seed)
    specs = tuple(VariableSpec(i, c, f"v{i}") for i, c in enumerate(cards))
    x = int(np.prod(cards)) if cards else 1
    n = endo_cardinality
    endo_kernel = rng.dirichlet(np.ones(n), size=(n, n_actions, x))
    exo_kernel = rng.dirichlet(np.ones(x), size=x)
    reward_tables = [
        rng.uniform(reward_low, reward_high, size=(n, c, n_actions)) for c in cards
    ]
    init_endo = rng.dirichlet(np.ones(n))
    init_exo = rng.dirichlet(np.ones(x))
    return TabularFullMdp(
        endo_kernel=endo_kernel,
        exo_kernel=exo_kernel,
        reward_tables=reward_tables,
        init_endo=init_endo,
        init_exo=init_exo,
        discount=discount,
        variable_specs=specs,
        name=f"random-{seed}",
    )


def build_chain_mdp(
    cards: tuple[int, ...],
    flip_probs: tuple[float, ...],
    discount: float = 0.9,
) -> TabularFullMdp:
    """Independent sticky chains with no rewards; endo is a single state."""
    m = len(cards)
    specs = tuple(VariableSpec(i, c, f"chain-{i}") for i, c in enumerate(cards))
    space = ReducedSpace(1, Mask.full(m), cards)
    x = space.n_exo
    rows = [_sticky_rows(c, p) for c, p in zip(cards, flip_probs)]
    exo_kernel = np.empty((x, x))
    for code in range(x):
        digits = space.decode_exo(code)
        exo_kernel[code] = _reduce(
            np.kron, [rows[i][digits[i]] for i in range(m)]
        )
    return TabularFullMdp(
        endo_kernel=np.ones((1, 1, x, 1)),
        exo_kernel=exo_kernel,
        reward_tables=[np.zeros((1, c, 1)) for c in cards],
        init_endo=np.ones(1),
        init_exo=np.full(x, 1.0 / x),
        discount=discount,
        variable_specs=specs,
        name="chains",
    )


def build_copy_chain_mdp(card: int = 4, discount: float = 0.9) -> TabularFullMdp:
    """Two variables: a deterministic cycle and a one-step-delayed copy.

    Variable 0 advances around a cycle of size ``card``; variable 1 equals
    variable 0's previous value at every step (the initial distribution
    already satisfies the relation). The transition pair of variable 1 is
    then a deterministic function of variable 0's transition pair.
    """
    cards = (card, card)
    space = ReducedSpace(1, Mask.full(2), cards)
    x = space.n_exo
    exo_kernel = np.zeros((x, x))
    init_exo = np.zeros(x)
    for code in range(x):
        a, b = space.decode_exo(code)
        exo_kernel[code, space.encode_exo(((a + 1) % card, a))] = 1.0
        if b == (a - 1) % card:
            init_exo[code] = 1.0 / card
    return TabularFullMdp(
        endo_kernel=np.ones((1, 1, x, 1)),
        exo_kernel=exo_kernel,
        reward_tables=[np.zeros((1, card, 1)), np.zeros((1, card, 1))],
        init_endo=np.ones(1),
        init_exo=init_exo,
        discount=discount,
        variable_specs=(
            VariableSpec(0, card, "cycle"),
            VariableSpec(1, card, "delayed-copy"),
        ),
        name="copy-chain",
    )


# ---------------------------------------------------------------------------
# Block-factorized MDPs and condition perturbations
# ---------------------------------------------------------------------------


def permute_exo_variables(mdp: TabularFullMdp, order: list[int]) -> TabularFullMdp:
    """Reorder the exogenous variables: new variable j is old ``order[j]``."""
    m = mdp.m
    if sorted(order) != list(range(m)):
        raise ValueError(f"order must be a permutation of 0..{m - 1}")
    old_cards = [s.cardinality for s in mdp.variable_specs]
    new_cards = [old_cards[o] for o in order]
    new_space = ReducedSpace(1, Mask.full(m), new_cards)
    old_space = ReducedSpace(1, Mask.full(m), old_cards)
    x = new_space.n_exo
    digits_new = new_space.digit_matrix()  # (m, X) digits per new variable
    old_digits = np.empty_like(digits_new)
    for j, o in enumerate(order):
        old_digits[o] = digits_new[j]
    weights_old = np.fromiter(old_space.weights, dtype=np.int64)
    old_of_new = weights_old @ old_digits
    specs = tuple(
        VariableSpec(j, new_cards[j], mdp.variable_specs[order[j]].name)
        for j in range(m)
    )
    return TabularFullMdp(
        endo_kernel=mdp.endo_kernel[:, :, old_of_new, :],
        exo_kernel=mdp.exo_kernel[np.ix_(old_of_new, old_of_new)],
        reward_tables=[mdp.reward_tables[o] for o in order],
        init_endo=mdp.init_endo,
        init_exo=mdp.init_exo[old_of_new],
        discount=mdp.discount,
        variable_specs=specs,
        r_max=mdp.r_max,
        name=mdp.name,
    )


def random_block_mdp(
    seed: int,
    *,
    max_full_states: int = 200,
    shuffle: bool = True,
) -> tuple[TabularFullMdp, Mask]:
    """Random two-block MDP satisfying the exactness conditions for the
    returned mask by construction.

    The exogenous variables split into two blocks with independent joint
    kernels; rewards and the endogenous kernel touch only the first block.
    The variable order is optionally shuffled so the designated mask is not
    just a prefix.
    """
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(2, 5))
        n_actions = int(rng.integers(2, 4))
        cards1 = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 3)))]
        cards2 = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 3)))]
        x1, x2 = int(np.prod(cards1)), int(np.prod(cards2))
        if n * x1 * x2 <= max_full_states:
            break
    discount = float(rng.uniform(0.8, 0.95))

    k1 = rng.dirichlet(np.ones(x1), size=x1)
    k2 = rng.dirichlet(np.ones(x2), size=x2)
    exo_kernel = np.kron(k1, k2)

    endo_block = rng.dirichlet(np.ones(n), size=(n, n_actions, x1))
    block_of = np.arange(x1 * x2) // x2
    endo_kernel = endo_block[:, :, block_of, :]

    cards = cards1 + cards2
    reward_tables = [
        rng.uniform(-1.0, 1.0, size=(n, c, n_actions)) for c in cards1
    ] + [np.zeros((n, c, n_actions)) for c in cards2]

    specs = tuple(
        VariableSpec(i, c, f"block1-{i}" if i < len(cards1) else f"block2-{i}")
        for i, c in enumerate(cards)
    )
    mdp = TabularFullMdp(
        endo_kernel=endo_kernel,
        exo_kernel=exo_kernel,
        reward_tables=reward_tables,
        init_endo=rng.dirichlet(np.ones(n)),
        init_exo=np.kron(rng.dirichlet(np.ones(x1)), rng.dirichlet(np.ones(x2))),
        discount=discount,
        variable_specs=specs,
        name=f"block-{seed}",
    )
    mask = Mask.full(len(cards1))
    if shuffle:
        order = [int(v) for v in rng.permutation(len(cards))]
        mdp = permute_exo_variables(mdp, order)
        mask = Mask.of(j for j, o in enumerate(order) if o < len(cards1))
    return mdp, mask


def perturb_excluded_reward(
    mdp: TabularFullMdp, mask: Mask, seed: int = 0, magnitude: float = 0.5
) -> TabularFullMdp:
    """Inject a nonzero reward component on an excluded variable."""
    excluded = mask.complement(mdp.m).included
    if not excluded:
        raise ValueError("mask excludes no variables")
    rng = np.random.default_rng(seed)
    j = int(excluded[rng.integers(len(excluded))])
    tables = [t.copy() for t in mdp.reward_tables]
    tables[j] += rng.uniform(0.25, 1.0, size=tables[j].shape) * magnitude
    return TabularFullMdp(
        endo_kernel=mdp.endo_kernel,
        exo_kernel=mdp.exo_kernel,
        reward_tables=tables,
        init_endo=mdp.init_endo,
        init_exo=mdp.init_exo,
        discount=mdp.discount,
        variable_specs=mdp.variable_specs,
        name=mdp.name + "+excluded-reward",
    )


def perturb_endo_on_excluded(
    mdp: TabularFullMdp, mask: Mask, seed: int = 0, strength: float = 0.5
) -> TabularFullMdp:
    """Make the endogenous kernel depend on the excluded variables."""
    pos, _, xc = mdp.mask_split(mask)
    if xc < 2:
        raise ValueError("excluded block must have at least two joint values")
    rng = np.random.default_rng(seed)
    n, a = mdp.endo_cardinality, mdp.action_count
    alt = rng.dirichlet(np.ones(n), size=(n, a))
    kernel = mdp.endo_kernel.copy()
    odd = (pos % xc) % 2 == 1  # excluded-code parity selects perturbed columns
    kernel[:, :, odd, :] = (
        (1.0 - strength) * kernel[:, :, odd, :]
        + strength * alt[:, :, None, :]
    )
    return TabularFullMdp(
        endo_kernel=kernel,
        exo_kernel=mdp.exo_kernel,
        reward_tables=mdp.reward_tables,
        init_endo=mdp.init_endo,
        init_exo=mdp.init_exo,
        discount=mdp.discount,
        variable_specs=mdp.variable_specs,
        r_max=mdp.r_max,
        name=mdp.name + "+endo-coupling",
    )


def perturb_exo_coupling(
    mdp: TabularFullMdp, mask: Mask, seed: int = 0, strength: float = 0.5
) -> TabularFullMdp:
    """Couple the excluded variables into the masked variables' dynamics.

    Only valid on MDPs whose exo kernel factorizes across the mask split
    (as the block MDPs built here do): rows conditioned on an odd excluded
    code get their masked marginal blended toward an alternative kernel,
    breaking the factorization while keeping every row normalized.
    """
    pos, xm, xc = mdp.mask_split(mask)
    if xc < 2:
        raise ValueError("excluded block must have at least two joint values")
    rng = np.random.default_rng(seed)
    inv = np.argsort(pos)
    joint = mdp.exo_kernel[np.ix_(inv, inv)].reshape(xm, xc, xm, xc)
    marg_m = joint.sum(axis=3)
    marg_c = joint.sum(axis=2)
    alt = rng.dirichlet(np.ones(xm), size=xm)
    new_joint = joint.copy()
    for c in range(1, xc, 2):
        blended = (1.0 - strength) * marg_m[:, c, :] + strength * alt
        new_joint[:, c, :, :] = blended[:, :, None] * marg_c[:, c, None, :]
    flat = new_joint.reshape(xm * xc, xm * xc)
    restored = flat[np.ix_(pos, pos)]
    return TabularFullMdp(
        endo_kernel=mdp.endo_kernel,
        exo_kernel=restored,
        reward_tables=mdp.reward_tables,
        init_endo=mdp.init_endo,
        init_exo=mdp.init_exo,
        discount=mdp.discount,
        variable_specs=mdp.variable_specs,
        r_max=mdp.r_max,
        name=mdp.name + "+exo-coupling",
    )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

PRESETS = {
    "gridworld-small": (GridworldSpec, build_gridworld),
    "crowd-desk": (CrowdSpec, build_crowd),
    "factory-desk": (FactorySpec, build_factory),
}


def list_presets() -> list[str]:
    return sorted(PRESETS)


def build_preset(
    name: str, overrides: dict | None = None, seed: int = 0
) -> GenerativeMdp:
    """Instantiate a named preset, applying field overrides to its spec."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {list_presets()}")
    spec_cls, builder = PRESETS[name]
    spec = spec_cls()
    if overrides:
        coerced = {
            k: tuple(v) if isinstance(v, list) else v for k, v in overrides.items()
        }
        spec = dataclasses.replace(spec, **coerced)
    return builder(spec, seed)
