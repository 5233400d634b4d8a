"""Shared utilities for the ONES reproduction.

This subpackage holds small, dependency-free helpers used throughout the
library: deterministic random-number management (:mod:`repro.utils.rng`),
unit constants and formatting (:mod:`repro.utils.units`), argument
validation (:mod:`repro.utils.validation`) and summary-statistics helpers
(:mod:`repro.utils.stats`).
"""
