"""Seeded random generation of closed, well-formed equation systems.

Sub-generators draw from independent streams derived from (seed, path)
so generated pieces do not depend on evaluation order; identical configs
produce identical systems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .syntax import (
    MU,
    NU,
    And,
    AndSet,
    Const,
    Equation,
    EquationSystem,
    Formula,
    Or,
    OrSet,
    Var,
)


@dataclass(frozen=True)
class GenConfig:
    variable_count: int = 4
    max_rhs_depth: int = 3
    constant_probability: float = 0.1
    operator_bias: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.variable_count < 1:
            raise ValueError("variable_count must be at least 1")
        if self.max_rhs_depth < 1:
            raise ValueError("max_rhs_depth must be at least 1")
        for name in ("constant_probability", "operator_bias"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")


def _stream(cfg: GenConfig, *path) -> random.Random:
    return random.Random(f"{cfg.seed}|" + "|".join(str(p) for p in path))


def _names(cfg: GenConfig) -> list[str]:
    return [f"X{i}" for i in range(cfg.variable_count)]


def _leaf(rng: random.Random, cfg: GenConfig, names: list[str]) -> Formula:
    if rng.random() < cfg.constant_probability:
        return Const(rng.random() < 0.5)
    return Var(rng.choice(names))


def _formula(rng: random.Random, cfg: GenConfig, names: list[str], depth: int) -> Formula:
    if depth <= 1 or rng.random() < 0.35:
        return _leaf(rng, cfg, names)
    op = And if rng.random() < cfg.operator_bias else Or
    return op(
        _formula(rng, cfg, names, depth - 1),
        _formula(rng, cfg, names, depth - 1),
    )


def gen_bes(cfg: GenConfig) -> EquationSystem:
    names = _names(cfg)
    equations = []
    for i, name in enumerate(names):
        rng = _stream(cfg, "eq", i)
        sign = MU if rng.random() < 0.5 else NU
        rhs = _formula(rng, cfg, names, cfg.max_rhs_depth)
        equations.append(Equation(sign, name, rhs))
    return EquationSystem(tuple(equations))


def gen_srf_bes(cfg: GenConfig) -> EquationSystem:
    names = _names(cfg)
    equations = []
    for i, name in enumerate(names):
        rng = _stream(cfg, "srf", i)
        sign = MU if rng.random() < 0.5 else NU
        shape = rng.random()
        if shape < 0.34:
            rhs: Formula = Var(rng.choice(names))
        else:
            count = rng.randint(1, len(names))
            members = frozenset(rng.sample(names, count))
            rhs = AndSet(members) if shape < 0.67 else OrSet(members)
        equations.append(Equation(sign, name, rhs))
    return EquationSystem(tuple(equations))
