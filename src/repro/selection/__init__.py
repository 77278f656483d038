"""Model selection layer (paper §5): bandit policies, ensembles, contextualization."""

from repro.selection.policy import SelectionPolicy, SelectionState, make_policy
from repro.selection.exp3 import Exp3Policy
from repro.selection.exp4 import Exp4Policy
from repro.selection.epsilon_greedy import EpsilonGreedyPolicy
from repro.selection.thompson import ThompsonSamplingPolicy
from repro.selection.ucb import UCB1Policy
from repro.selection.single import SingleModelPolicy
from repro.selection.ensemble import majority_vote, weighted_vote
from repro.selection.manager import SelectionStateManager

__all__ = [
    "SelectionPolicy",
    "SelectionState",
    "make_policy",
    "Exp3Policy",
    "Exp4Policy",
    "EpsilonGreedyPolicy",
    "ThompsonSamplingPolicy",
    "UCB1Policy",
    "SingleModelPolicy",
    "majority_vote",
    "weighted_vote",
    "SelectionStateManager",
]
