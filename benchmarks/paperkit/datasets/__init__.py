"""Synthetic stand-ins for the paper's benchmark datasets (Table 1).

The real MNIST / CIFAR-10 / ImageNet / TIMIT corpora are not available in
this offline environment, so each has a deterministic synthetic generator
matched to the original's input dimensionality, label cardinality and
relative difficulty.  The serving experiments only depend on those
structural properties, never on the semantic content of the images/audio.
"""
