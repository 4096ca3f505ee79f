"""Experiment harness: configs, the sweep engine, and the paper's figures.

The supported import surface of this layer is :mod:`repro.api`.  The
package root exports nothing; its submodules (``repro.experiments.sweep``
and friends) stay importable, and the facade itself is built on them.
"""
