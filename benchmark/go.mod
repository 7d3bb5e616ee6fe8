// The benchmark is a module of its own so that it builds from its own
// build file and never rides along in the root module's tier-1
// `go build ./... && go test ./...`. The import path stays under
// repro/, which is what lets it import repro/internal/... through the
// stack's public functions.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
