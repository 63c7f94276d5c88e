module github.com/garnet-middleware/garnet/bench

go 1.24

require github.com/garnet-middleware/garnet v0.0.0

replace github.com/garnet-middleware/garnet => ../
