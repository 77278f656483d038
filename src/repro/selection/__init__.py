"""Model selection layer (paper §5): bandit policies, ensembles, contextualization."""
