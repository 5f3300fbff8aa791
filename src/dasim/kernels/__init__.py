"""Workload generators: per-PE operation streams and allocation plans."""

from .plan import KernelPlan, PlanBuilder, ShapeError, group_window_cfg, run_plan
from .gemv import gen_gemv, gemv_geometry

__all__ = ["KernelPlan", "PlanBuilder", "ShapeError", "run_plan",
           "group_window_cfg", "gen_gemv", "gemv_geometry"]
