"""Model containers (paper §4.4): the narrow-waist batch prediction interface.

Import from the defining modules; the package itself exports nothing.
"""
