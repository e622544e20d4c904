"""Experiment harness: run applications under Vidi and regenerate the
paper's tables and figures.

``runner`` executes individual R1/R2/R3 deployments; ``experiments`` holds
one driver per paper artefact (Table 1, Table 2, Fig. 7, §5.2-§5.5, §6)
with paper-style text rendering (``vidi artifact``); ``jobs`` is the one
executor behind the ``vidi record``/``replay``/``divergence``/``salvage``/
``campaign`` commands and the trace-service daemon. The ``benchmarks/``
tree wraps these in pytest-benchmark entry points. Import the submodules
directly: the package itself stays light, so ``vidi`` and the daemon can
read the job table without importing the simulation stack.
"""
