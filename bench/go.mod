module costcache/bench

go 1.22

require costcache v0.0.0

replace costcache => ../
