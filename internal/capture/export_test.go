package capture

// SimulateVantage exposes the single-vantage test driver to the external
// fleet tests, which pin the engine's one-node run against it.
var SimulateVantage = simulateVantage
