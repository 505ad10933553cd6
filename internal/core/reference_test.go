package core

// Code only this package's tests call. No figure, command or service
// reaches it, so it is compiled into the tests alone.

// Config returns the effective (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }
