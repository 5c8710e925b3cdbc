"""The paper's contribution: NeighborSample / NeighborExploration samplers, their five estimators and Theorem 4.1-4.5 bounds."""
