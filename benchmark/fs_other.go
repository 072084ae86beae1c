//go:build !linux

package main

func fsName(string) string { return "unknown" }
