// The benchmark is a module of its own so that it carries its own build
// file; the module path sits under eternalgw/ so the go command lets it
// import eternalgw/internal/... through the replace below.
module eternalgw/bench

go 1.22

require eternalgw v0.0.0

replace eternalgw => ../
