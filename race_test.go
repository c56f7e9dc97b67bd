//go:build race

package cawosched_test

func init() { raceEnabled = true }
