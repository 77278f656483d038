"""paperkit — what the paper's evaluation needs besides the serving system.

Clipper serves models trained in other frameworks on data it never sees; the
figure benchmarks, the examples and their tests need both.  This package
holds them, outside ``src/``: it imports :mod:`repro`, and :mod:`repro`
never imports it.  Put ``benchmarks`` on the path beside ``src``
(``PYTHONPATH=src:benchmarks``; pytest does it through ``pyproject.toml``).
There are no re-exports: import a name from the module that defines it.

``paperkit.mlkit``
    A from-scratch numpy machine-learning framework standing in for
    Scikit-Learn / Spark MLlib / Caffe / TensorFlow.
``paperkit.datasets``
    Synthetic stand-ins for MNIST, CIFAR-10, ImageNet and TIMIT (Table 1).
``paperkit.suites``
    The model line-ups the figures share (Figs. 3, 7/8, 10).
``paperkit.overhead``
    A container wrapper adding language overhead (Figs. 3 and 11).
``paperkit.load``
    The load driver: closed-loop users or due times, on the loop's clock.
``paperkit.serving``
    The systems Fig. 11 measures: Clipper around one container, and the
    TensorFlow-Serving-like baseline.
``paperkit.profiles``
    Latency-vs-batch-size profiles (Fig. 3).
``paperkit.served_selection``
    Figs. 7, 8 and 10 served through ``Clipper.predict`` / ``feedback``, one
    lookup container per model answering with its precomputed outputs.
``paperkit.ab_testing``
    The A/B-testing selection baseline (Fig. 8).
``paperkit.reporting``
    Latency summaries and plain-text tables.
"""
