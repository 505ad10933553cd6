package store

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

// RunPath returns the path the record for a run ID lives at, whether or
// not it exists yet. IDs are path-escaped like cell IDs, so a hostile
// run ID can never traverse directories.
func (s *Store) RunPath(id string) string { return runKind.path(s.dir, id, 0) }
