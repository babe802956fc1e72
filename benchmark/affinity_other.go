//go:build !linux

package main

import "errors"

// cpuMask stands in for the Linux affinity mask: elsewhere the benchmark
// runs unpinned and says so.
type cpuMask struct{}

func (m *cpuMask) count() int { return 0 }

func allowedCPUs() (cpuMask, error) { return cpuMask{}, errors.New("no CPU affinity on this platform") }
func firstCPU(m cpuMask) cpuMask    { return m }
func setAffinity(cpuMask) error     { return errors.New("no CPU affinity on this platform") }
