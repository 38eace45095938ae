module perfxplain/bench

go 1.22

require perfxplain v0.0.0

replace perfxplain => ../
