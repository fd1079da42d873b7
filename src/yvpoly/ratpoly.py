"""Empty. Every exact polynomial is an `intpoly.IntPoly`.

The module stays importable only because the benchmark's tracer
(perfbench/tracer.py) imports every module named in its `LAYERS`; the file
goes together with that entry.
"""
