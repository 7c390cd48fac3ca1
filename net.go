package cqp

import (
	"cqp/internal/client"
	"cqp/internal/server"
)

// Network layer: the location-aware TCP server and its client library.
type (
	// Server is a running location-aware server.
	Server = server.Server
	// ServerConfig parameterizes Listen.
	ServerConfig = server.Config
	// Client is a connection to a location-aware server.
	Client = client.Client
	// Event is a client-side notification (updates, recovery, full
	// answer, disconnection, commit acknowledgment).
	Event = client.Event
	// EventKind discriminates Events.
	EventKind = client.EventKind
)

// Client event kinds.
const (
	// EventUpdates is a routine incremental batch.
	EventUpdates = client.EventUpdates
	// EventRecovered is the diff completing an out-of-sync recovery.
	EventRecovered = client.EventRecovered
	// EventFullAnswer is a complete answer (recovery fallback).
	EventFullAnswer = client.EventFullAnswer
	// EventDisconnected reports a dead connection.
	EventDisconnected = client.EventDisconnected
	// EventCommitted acknowledges a commit.
	EventCommitted = client.EventCommitted
	// EventStats carries a server-statistics response.
	EventStats = client.EventStats
	// EventReconnectFailed reports exhausted automatic reconnection.
	EventReconnectFailed = client.EventReconnectFailed
)

// ServerStats is the server-side view returned by Client.RequestStats.
type ServerStats = client.ServerStats

// ClientOptions parameterizes DialOptions (automatic reconnection,
// retry backoff, read deadlines, custom dialers).
type ClientOptions = client.Options

// RetryPolicy shapes the jittered exponential backoff of automatic
// client reconnection.
type RetryPolicy = client.RetryPolicy

// Listen starts a location-aware server on addr.
func Listen(addr string, cfg ServerConfig) (*Server, error) { return server.Listen(addr, cfg) }

// Dial connects a client to a running server.
func Dial(addr string) (*Client, error) { return client.Dial(addr) }

// DialOptions connects a client with explicit lifecycle options.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	return client.DialOptions(addr, opts)
}
