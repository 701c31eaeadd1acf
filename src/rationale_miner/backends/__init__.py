"""Model backends: remote HTTP service, scripted test double, trained heads."""
