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

import numpy as np

from .core import (
    GenerativeMdp,
    Mask,
    ReducedSpace,
    TabularFullMdp,
    VariableSpec,
)

_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))  # up, down, left, right


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


def _joint_kernel(rows: list[np.ndarray], x: int) -> np.ndarray:
    """``(x, x)`` joint exo kernel of the variables' ``(x, card_i)`` next-value
    rows at each joint code: per code, their ``functools.reduce(np.kron)`` in
    variable order, as broadcast outer products."""
    joint = np.ones((x, 1))
    for row in rows:
        joint = (joint[:, :, None] * row[:, None, :]).reshape(len(joint), -1)
    return joint


def _sticky_rows(card: int, flip_prob: float) -> np.ndarray:
    """(card, card) chain: keep the value, or move to a uniform other one."""
    rows = np.full((card, card), flip_prob / max(1, card - 1))
    np.fill_diagonal(rows, 1.0 - flip_prob)
    if card == 1:
        rows[:] = 1.0
    return rows


def _check_spec(spec, counts: tuple[str, ...]) -> None:
    """Refuse a generative spec whose discount is outside (0, 1], whose
    ``*_prob`` fields are outside [0, 1] or whose ``counts`` are negative;
    each check states what must hold, so that NaN fails it."""
    if not 0.0 < spec.discount <= 1.0:
        raise ValueError(f"discount must be in (0, 1], got {spec.discount}")
    for name in (f.name for f in dataclasses.fields(spec)):
        value = getattr(spec, name)
        if name.endswith("_prob") and not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if name in counts and not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")


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

    digits = space.digit_matrix()  # (m, X): each variable's value at each code
    rows = [_sticky_rows(2, spec.distractor_flip_prob)[d] for d in digits]
    rows[spec.trap_var] = _sticky_rows(2, spec.trap_flip_prob)[digits[spec.trap_var]]
    armed = 0.5  # without drivers the goal flips at half its scale
    if spec.xor_drivers is not None:
        a, b = spec.xor_drivers
        rows[a] = rows[b] = np.full((x_count, 2), 0.5)
        armed = digits[a] ^ digits[b]
    flip = np.broadcast_to(spec.goal_flip_scale * armed, (x_count,))[:, None]
    stay = np.eye(2, dtype=bool)[digits[spec.goal_var]]  # (X, 2): the current value
    rows[spec.goal_var] = np.where(stay, 1.0 - flip, flip)
    exo_kernel = _joint_kernel(rows, x_count)

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
        _check_spec(spec, counts=("n_task_vars", "n_distractors"))
        self.spec = spec
        k, d = spec.n_task_vars, spec.n_distractors
        self._specs = tuple(
            VariableSpec(i, 2, f"task-{i}" if i < k else f"distractor-{i - k}")
            for i in range(k + d)
        )
        self._flip = np.array(
            [spec.task_flip_prob] * k + [spec.distractor_flip_prob] * d
        )
        # executing pays per task variable: the match reward when it is ready
        # (value 1), the mismatch penalty when not; waiting pays nothing
        self._rewards = np.zeros((k + d, 1, 2, 2))
        execute = self._rewards[:k, 0, :, ACTION_EXECUTE]  # (k, value)
        execute[:] = -spec.mismatch_penalty, spec.match_reward
        self._rewards.flags.writeable = False

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

    @property
    def draws_per_step(self) -> int:
        return self.m

    def batch_initial(self, u):
        return np.zeros(len(u), dtype=np.int64), (2 * u).astype(np.int64)

    @property
    def exo_columns(self) -> tuple[int, ...]:
        return tuple(range(self.m))

    def batch_exo_step(self, exo, u):
        """Variable i flips when its own uniform falls below its flip rate."""
        return exo ^ (u < self._flip)

    def batch_endo_step(self, endo, exo, action, u):
        return endo

    def reward_component_table(self, i):
        return self._rewards[i]


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
        _check_spec(spec, counts=("width", "height", "n_agents"))
        if not 0 <= spec.start_cell < spec.width * spec.height:
            grid = f"{spec.width}x{spec.height} grid"
            raise ValueError(f"start_cell {spec.start_cell} outside the {grid}")
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
        self._table_cells = np.array(spec.table_cells, dtype=np.int64)
        # table index of each grid cell, -1 off the tables (last one wins)
        self._table_of_cell = np.full(self._cells, -1, dtype=np.int64)
        for i, cell in enumerate(spec.table_cells):
            if 0 <= cell < self._cells:
                self._table_of_cell[cell] = i
        # next cell per (cell, direction), direction 4 staying put
        self._moves = np.array(
            [
                [_move_cell(c, d, spec.width, spec.height) for d in range(4)] + [c]
                for c in range(self._cells)
            ],
            dtype=np.int64,
        )
        self._init_cards = np.array(
            [self._n_tables] * spec.n_objects
            + [self._cells] * spec.n_agents
            + [2] * len(spec.hazard_cells),
            dtype=float,
        )
        # the goal object pays when the robot stands at its table, an active
        # hazard charges at its cell; cells off the grid pay nothing
        self._rewards = [np.zeros((self._cells, s.cardinality, 5)) for s in specs]
        cells = self._table_cells
        on_grid = np.flatnonzero((0 <= cells) & (cells < self._cells))
        self._rewards[spec.goal_object][cells[on_grid], on_grid] = spec.goal_reward
        for h, cell in enumerate(spec.hazard_cells):
            if 0 <= cell < self._cells:
                self._rewards[self._hazard_offset + h][cell, 1] = -spec.crash_penalty
        for table in self._rewards:
            table.flags.writeable = False

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

    @property
    def draws_per_step(self) -> int:
        """Per agent a move and a direction, per object a pickup or drop,
        per hazard a flip, and the robot's slip and slip direction."""
        spec = self.spec
        return 2 * spec.n_agents + spec.n_objects + len(spec.hazard_cells) + 2

    @property
    def exo_columns(self) -> tuple[int, ...]:  # all but the robot's two
        return tuple(range(self.draws_per_step - 2))

    def batch_initial(self, u):
        endo = np.full(len(u), self.spec.start_cell, dtype=np.int64)
        return endo, (u[:, : self.m] * self._init_cards).astype(np.int64)

    def batch_exo_step(self, exo, u):
        spec = self.spec
        n_ag, n_tables = spec.n_agents, self._n_tables
        ag, hz = self._agent_offset, self._hazard_offset
        out = np.empty_like(exo)
        for k in range(n_ag):
            pos = exo[:, ag + k]
            moved = self._moves[pos, (4 * u[:, 2 * k + 1]).astype(np.int64)]
            out[:, ag + k] = np.where(u[:, 2 * k] < spec.agent_move_prob, moved, pos)
        agents = out[:, ag:hz]
        for j in range(spec.n_objects):
            v, u_j = exo[:, j], u[:, 2 * n_ag + j]
            on_table = v < n_tables
            new = v.copy()
            if spec.manipulable[j] and n_ag:
                # the lowest-numbered agent on the object's table picks it up
                cell = self._table_cells[np.minimum(v, n_tables - 1)]
                carrier = np.full(len(v), -1)
                for k in reversed(range(n_ag)):
                    carrier[agents[:, k] == cell] = k
                pick = on_table & (carrier >= 0) & (u_j < spec.pickup_prob)
                new[pick] = n_tables + carrier[pick]
            if n_ag:
                # a carried object may drop onto the table its carrier is on
                carrier = np.maximum(v - n_tables, 0)
                pos = agents[np.arange(len(v)), carrier]
                table = self._table_of_cell[pos]
                drop = ~on_table & (table >= 0) & (u_j < spec.drop_prob)
                new[drop] = table[drop]
            out[:, j] = new
        flips = u[:, 2 * n_ag + spec.n_objects :]
        out[:, hz:] = exo[:, hz:] ^ (flips < spec.hazard_flip_prob)
        return out

    def batch_endo_step(self, endo, exo, action, u):
        # stay (action 4) never slips; a move slips to a uniform direction
        slip = (action < 4) & (u[:, 0] < self.spec.slip_prob)
        direction = np.where(slip, (4 * u[:, 1]).astype(np.int64), action)
        return self._moves[endo, direction]

    def reward_component_table(self, i):
        return self._rewards[i]


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
    digits = space.digit_matrix()
    rows = [_sticky_rows(c, p)[d] for c, p, d in zip(cards, flip_probs, digits)]
    exo_kernel = _joint_kernel(rows, x)
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


def _perturbed(mdp: TabularFullMdp, suffix: str, **changes) -> TabularFullMdp:
    """``mdp`` with ``changes`` to its constructor arguments, renamed."""
    kept = dict(
        endo_kernel=mdp.endo_kernel, exo_kernel=mdp.exo_kernel,
        reward_tables=mdp.reward_tables, init_endo=mdp.init_endo,
        init_exo=mdp.init_exo, discount=mdp.discount,
        variable_specs=mdp.variable_specs, r_max=mdp.r_max,
    )
    return TabularFullMdp(**{**kept, **changes}, name=mdp.name + suffix)


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
    return _perturbed(mdp, "+excluded-reward", reward_tables=tables, r_max=None)


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
    return _perturbed(mdp, "+endo-coupling", endo_kernel=kernel)


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
    return _perturbed(mdp, "+exo-coupling", exo_kernel=restored)


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
