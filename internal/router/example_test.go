package router_test

import (
	"fmt"
	"time"

	"instability/internal/bgp"
	"instability/internal/events"
	"instability/internal/netaddr"
	"instability/internal/router"
	"instability/internal/session"
)

// Example_flapStorm reproduces §3's route flap storm: a weak route-caching
// hub carries routes between a flapping feeder and a bystander. The update
// load starves the hub's keepalives, the bystander declares it dead and
// withdraws its routes, and the session churn feeds back.
func Example_flapStorm() {
	sim := events.New(42)
	hub := router.New(sim, router.Config{
		AS: 200, ID: 2, Arch: router.RouteCache,
		CPU: router.CPUModel{
			PerUpdate:    8 * time.Millisecond, // a light 68000-class CPU
			PerCacheMiss: time.Millisecond,
			CrashBacklog: 45 * time.Second,
			RebootTime:   2 * time.Minute,
		},
		Session: session.Config{MRAI: 0, HoldTime: 30 * time.Second},
	})
	feeder := router.New(sim, router.Config{
		AS: 100, ID: 1, Session: session.Config{MRAI: 0, Stateless: true},
	})
	bystander := router.New(sim, router.Config{
		AS: 300, ID: 3, Session: session.Config{MRAI: 0, HoldTime: 30 * time.Second},
	})
	router.Connect(sim, feeder, hub, time.Millisecond)
	hb := router.Connect(sim, hub, bystander, time.Millisecond)
	sim.RunFor(5 * time.Second)
	fmt.Printf("hub<->bystander established=%v\n", hb.Established())

	// The bystander's stable world: a few routes via the hub.
	for i := 0; i < 5; i++ {
		bystander.Originate(netaddr.MustPrefix(netaddr.Addr(0xc0000000+uint32(i)<<8), 24), bgp.OriginIGP)
	}
	sim.RunFor(5 * time.Second)

	// 250 prefix changes a second through the hub: twice its capacity.
	var i int
	blaster := sim.Every(4*time.Millisecond, func() {
		p := netaddr.MustPrefix(netaddr.Addr(0x0a000000+uint32(i/2%2000)*256), 24)
		if i%2 == 0 {
			feeder.Originate(p, bgp.OriginIGP)
		} else {
			feeder.WithdrawOrigin(p)
		}
		i++
	})
	for minute := 1; minute <= 5; minute++ {
		sim.RunFor(time.Minute)
		fmt.Printf("t=%dm backlog=%.1fs crashed=%v bystander drops=%d\n",
			minute, hub.Backlog().Seconds(), hub.Crashed(), bystander.Metrics().SessionDrops)
	}
	blaster.Stop()

	// The storm subsides.
	sim.RunFor(10 * time.Minute)
	fmt.Printf("recovered: established=%v, hub crashes=%d, bystander drops=%d\n",
		hb.Established(), hub.Metrics().Crashes, bystander.Metrics().SessionDrops)
	// Output:
	// hub<->bystander established=true
	// t=1m backlog=0.0s crashed=true bystander drops=1
	// t=2m backlog=0.0s crashed=true bystander drops=1
	// t=3m backlog=0.0s crashed=false bystander drops=1
	// t=4m backlog=0.0s crashed=false bystander drops=1
	// t=5m backlog=30.1s crashed=false bystander drops=1
	// recovered: established=true, hub crashes=1, bystander drops=2
}
